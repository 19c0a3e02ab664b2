"""Fleet execution: N worker Machines behind one frontend.

Two drivers share one worker implementation:

* **in-process** (default): workers run sequentially in this process.
  Simulated time still models the fleet as parallel hardware — the
  fleet's simulated duration is the *maximum* worker cycle count, since
  real workers run concurrently — while staying single-threaded and
  bit-deterministic, which is what the tests and the CI gate use.
* **multiprocessing**: each worker owns its Machine in its own OS
  process (``processes=True``).  Routing happens up front in the parent
  with a seeded frontend, so the request->worker assignment — and hence
  every worker's simulated execution — is identical to the in-process
  driver no matter how the host schedules the processes.

Workers default to ``engine_mode="recover"``: a worker that catches an
attack rolls back via :mod:`repro.resil` and keeps serving (it stays in
rotation, the request is quarantined).  A worker that dies anyway —
alert in ``raise`` mode, unrecoverable fault — is ejected, and the
in-process driver re-routes its unserved requests to workers that have
not yet run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.compiler.instrument import ShiftOptions
from repro.fleet.frontend import FleetFrontend, Request
from repro.fleet.wire import TaggedMessage
from repro.taint.policy import PolicyConfig

#: Default per-worker instruction budget.
MAX_INSTRUCTIONS = 1_000_000_000


@dataclass
class FleetConfig:
    """Everything needed to build one worker Machine (picklable)."""

    variant: str = "standard"
    options: Optional[ShiftOptions] = None
    policy: Optional[PolicyConfig] = None
    sizes: Tuple[int, ...] = (4,)
    engine: str = "predecoded"
    engine_mode: str = "recover"
    recover_watchdog: Optional[int] = 5_000_000
    #: Bound on each worker Machine's own pending queue (the device
    #: level bound; the frontend's queue_capacity bounds routing).
    net_capacity: Optional[int] = None
    #: Record outbound taint flags on every connection (proxy tiers set
    #: this so responses can leave as TaggedMessages).
    capture_taint: bool = False
    tracing: bool = False
    #: Shared trace path; each worker's machine id derives its own file.
    trace_path: Optional[str] = None
    #: Per-worker tracking mode, one of
    #: :data:`repro.adaptive.ADAPTIVE_MODES`.
    adaptive: str = "none"
    max_instructions: int = MAX_INSTRUCTIONS


#: A request as shipped to a worker: (payload, packed tags or None).
EncodedRequest = Tuple[bytes, Optional[bytes]]


def encode_request(request: Request) -> EncodedRequest:
    """Normalise a raw-bytes or TaggedMessage request for a worker."""
    if isinstance(request, TaggedMessage):
        return (request.payload, request.tags)
    return (bytes(request), None)


def build_worker(config: FleetConfig, worker_id: str):
    """Build one worker Machine from the shared fleet configuration."""
    from repro.harness.runners import build_web_machine

    return build_web_machine(
        config.variant, config.options,
        policy_config=config.policy,
        sizes=config.sizes,
        engine=config.engine,
        engine_mode=config.engine_mode,
        recover_watchdog=config.recover_watchdog,
        machine_id=worker_id,
        net_capacity=config.net_capacity,
        tracing=config.tracing,
        trace_path=config.trace_path,
        adaptive=config.adaptive,
    )


def run_worker(config: FleetConfig, worker_id: str,
               requests: Sequence[EncodedRequest]) -> Tuple[Dict, object]:
    """Run one worker over its routed requests; (summary, machine).

    The summary is a plain picklable dict — the multiprocessing driver
    returns only the summary, the in-process driver keeps the machine
    too (for tests and forensics).
    """
    from repro.cpu.faults import Fault
    from repro.taint.engine import SecurityAlert

    machine = build_worker(config, worker_id)
    for payload, tags in requests:
        machine.net.add_request(payload, taint_mask=tags,
                                capture_taint=config.capture_taint)
    served: Optional[int] = None
    error = None
    try:
        served = machine.run(max_instructions=config.max_instructions)
    except SecurityAlert as exc:
        error = {"type": "alert", "message": str(exc),
                 "policy_id": exc.policy_id}
    except Fault as exc:
        error = {"type": "fault", "message": str(exc), "policy_id": ""}
    counters = machine.counters
    summary = {
        "worker_id": worker_id,
        "requests": len(requests),
        "served": served,
        "completed": error is None,
        "error": error,
        "cycles": counters.cycles,
        "io_cycles": counters.io_cycles,
        "instructions": counters.instructions,
        "alerts": [
            {"worker": worker_id, "policy_id": a.policy_id,
             "message": a.message, "context": a.context,
             "origins": [o.describe() for o in a.origins]}
            for a in machine.alerts
        ],
        "incidents": _incident_dicts(machine, worker_id),
        "quarantined": len(machine.net.quarantined),
        "net_dropped": machine.net.dropped,
        "unserved": [
            (bytes(c.inbound), c.taint_mask) for c in machine.net.pending
        ],
        "responses": [bytes(c.outbound) for c in machine.net.completed],
        "metrics": machine.metrics().to_dict(),
        "spec": (None if machine.spec is None else {
            "epochs": machine.spec.epochs,
            "commits": machine.spec.commits,
            "rollbacks": machine.spec.rollbacks,
            "committed_instructions": machine.spec.committed_instructions,
            "wasted_instructions": machine.spec.wasted_instructions,
            "deferred_sends": machine.spec.deferred_sends,
            "deferred_bytes": machine.spec.deferred_bytes,
        }),
        "trace_path": machine.trace_path,
    }
    return summary, machine


def migrate_worker(config: FleetConfig, source_machine, new_worker_id: str,
                   *, at_request: Optional[int] = None):
    """Move a worker's live session onto a freshly built machine.

    Packs the source (base + COW deltas, taint bitmap, provenance, fd
    and device queues — see :mod:`repro.resil.migrate`) and rehydrates
    the blob on a new worker built from the same fleet configuration.
    Returns ``(blob, target_machine)``; the caller runs the target to
    continue serving the migrated pending queue.

    ``at_request`` selects the chain checkpoint at which ``Connection``
    with that arrival index was at the head of the pending queue —
    "migrate the session just before request N" — instead of the
    source's current state.
    """
    from repro.resil.migrate import pack_worker, rehydrate_worker

    checkpoint = None
    if at_request is not None:
        sup = getattr(source_machine, "resil", None)
        if sup is None:
            raise ValueError(
                "at_request needs a supervised (recover-mode) source")
        for node in sup.chain:
            if node.pending_head_index == at_request:
                checkpoint = node
                break
        else:
            raise ValueError(
                f"no chain checkpoint has request {at_request} pending")
    blob = pack_worker(source_machine, checkpoint)
    target = build_worker(config, new_worker_id)
    rehydrate_worker(blob, target)
    return blob, target


def _incident_dicts(machine, worker_id: str) -> List[Dict]:
    sup = getattr(machine, "resil", None)
    if sup is None:
        return []
    alerts_by_count = {a.instruction_count: a for a in machine.alerts}
    out = []
    for inc in sup.incidents:
        alert = alerts_by_count.get(inc.instruction_count)
        out.append({
            "worker": inc.worker or worker_id,
            "request_index": inc.request_index,
            "reason": inc.reason,
            "policy_id": inc.policy_id,
            "message": inc.message,
            "pc": inc.pc,
            "instruction_count": inc.instruction_count,
            "origins": ([o.describe() for o in alert.origins]
                        if alert is not None else []),
        })
    return out


def _mp_entry(args) -> Dict:
    """Top-level multiprocessing target (must be picklable by name)."""
    config, worker_id, requests = args
    summary, _machine = run_worker(config, worker_id, requests)
    return summary


@dataclass
class FleetResult:
    """Outcome of one fleet run."""

    workers: List[Dict]
    routed: Dict[str, int]
    requests: int
    #: Requests the frontend refused outright (all queues full).
    dropped: int
    #: Requests that spilled past their first-choice worker.
    spilled: int
    #: Requests re-routed after a worker ejection.
    rerouted: int = 0
    #: Requests that never ran (owner ejected, no survivor left to run).
    unserved: int = 0
    wall_seconds: float = 0.0
    machines: Dict[str, object] = field(default_factory=dict)

    @property
    def served(self) -> int:
        """Clean requests answered across the fleet."""
        return sum(w["served"] or 0 for w in self.workers)

    @property
    def quarantined(self) -> int:
        """Requests quarantined by worker-level rollback recovery."""
        return sum(w["quarantined"] for w in self.workers)

    @property
    def sim_cycles(self) -> float:
        """Fleet simulated duration: the slowest worker's cycles.

        Workers are independent machines running concurrently, so fleet
        wall-time-in-simulation is a max, not a sum — this is the number
        the 1->N throughput-scaling claim is measured against.
        """
        return max((w["cycles"] for w in self.workers), default=0.0)

    @property
    def sim_throughput(self) -> float:
        """Served requests per billion simulated cycles."""
        cycles = self.sim_cycles
        return self.served / (cycles / 1e9) if cycles else 0.0

    @property
    def ejected(self) -> List[str]:
        """Ids of workers removed from rotation."""
        return [w["worker_id"] for w in self.workers if not w["completed"]]

    @property
    def utilization(self) -> Dict[str, float]:
        """Per-worker busy fraction: own cycles / slowest worker's cycles.

        The fleet's simulated duration is the slowest worker's cycle
        count, so a worker at 1.0 ran the whole time and a worker at
        0.5 sat idle for half the fleet run — the imbalance fleetbench
        and servebench compare.
        """
        sim = self.sim_cycles
        if not sim:
            return {w["worker_id"]: 0.0 for w in self.workers}
        return {w["worker_id"]: w["cycles"] / sim for w in self.workers}

    def metrics(self):
        """Merged fleet-level metrics registry (see repro.fleet.observe)."""
        from repro.fleet.observe import merge_worker_metrics

        return merge_worker_metrics(self)

    def incidents(self) -> List[Dict]:
        """Every worker incident, ordered by worker then occurrence."""
        out: List[Dict] = []
        for worker in self.workers:
            out.extend(worker["incidents"])
        return out

    def digest(self) -> str:
        """Deterministic fingerprint of the fleet's observable outcome.

        Two runs with the same seed must produce the same digest — this
        is the bit-reproducibility check fleetbench gates on.
        """
        import hashlib
        import json

        canonical = [
            {
                "worker": w["worker_id"],
                "served": w["served"],
                "cycles": w["cycles"],
                "instructions": w["instructions"],
                "quarantined": w["quarantined"],
                "responses": [hashlib.sha256(r).hexdigest()
                              for r in w["responses"]],
            }
            for w in sorted(self.workers, key=lambda w: w["worker_id"])
        ]
        blob = json.dumps(canonical, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


class FleetDriver:
    """Routes a batch of requests and executes the worker fleet."""

    def __init__(self, config: Optional[FleetConfig] = None, *,
                 workers: int = 2, routing: str = "round_robin",
                 seed: int = 0, queue_capacity: Optional[int] = None) -> None:
        if workers <= 0:
            raise ValueError("fleet needs at least one worker")
        self.config = config or FleetConfig()
        self.worker_ids = [f"w{i}" for i in range(workers)]
        self.routing = routing
        self.seed = seed
        self.queue_capacity = queue_capacity

    def _route(self, requests: Sequence[Request]) -> FleetFrontend:
        frontend = FleetFrontend(
            self.worker_ids, policy=self.routing, seed=self.seed,
            queue_capacity=self.queue_capacity)
        frontend.submit_all(requests)
        return frontend

    def run(self, requests: Sequence[Request], *,
            processes: bool = False) -> FleetResult:
        """Route and execute; ``processes=True`` fans out via fork/spawn."""
        frontend = self._route(requests)
        started = time.perf_counter()
        if processes:
            result = self._run_processes(frontend)
        else:
            result = self._run_inline(frontend)
        result.requests = len(requests)
        result.wall_seconds = time.perf_counter() - started
        return result

    def _run_inline(self, frontend: FleetFrontend) -> FleetResult:
        summaries: List[Dict] = []
        machines: Dict[str, object] = {}
        rerouted = 0
        unserved = 0
        pending_ids = list(self.worker_ids)
        routed = {wid: len(frontend.slots[wid].queue)
                  for wid in self.worker_ids}
        while pending_ids:
            wid = pending_ids.pop(0)
            batch = [encode_request(r) for r in frontend.slots[wid].queue]
            frontend.slots[wid].queue.clear()
            summary, machine = run_worker(self.config, wid, batch)
            summaries.append(summary)
            machines[wid] = machine
            if summary["completed"]:
                continue
            # Health ejection: hand the dead worker's unserved requests
            # to workers that have not run yet (the survivors).
            frontend.eject(wid, summary["error"]["message"])
            orphans = summary["unserved"]
            survivors = [s for s in pending_ids if frontend.slots[s].healthy]
            if not survivors:
                unserved += len(orphans)
                continue
            for i, (payload, tags) in enumerate(orphans):
                target = survivors[i % len(survivors)]
                frontend.slots[target].queue.append(
                    TaggedMessage(payload=payload, tags=tags)
                    if tags is not None else payload)
                rerouted += 1
        return FleetResult(
            workers=summaries, routed=routed, requests=0,
            dropped=frontend.dropped, spilled=frontend.spilled,
            rerouted=rerouted, unserved=unserved, machines=machines)

    def run_supervised(self, requests: Sequence[Request], *,
                       chaos=None, supervision=None,
                       shed_limit: Optional[int] = None) -> Dict:
        """Multiprocessing execution with heartbeats and crash recovery.

        Unlike :meth:`run`'s plain ``processes=True`` path — where a
        worker process that dies takes its batch with it — this path
        supervises every worker (heartbeat failure detection, periodic
        ``SHFTMIG1`` checkpoint replication, replacement spawn via
        ``add_worker``, journal-driven replay) and survives the real
        ``SIGKILL``/stall faults a :class:`~repro.chaos.schedule
        .ChaosSchedule`'s directives inject.  Returns the supervised
        report dict (see :class:`repro.fleet.supervised
        .SupervisedFleet`); wall-clock numbers are real, the
        exactly-once accounting is the part worth gating.
        """
        from repro.fleet.supervised import SupervisedFleet

        fleet = SupervisedFleet(
            self.config, workers=len(self.worker_ids),
            seed=self.seed, routing=self.routing,
            shed_limit=shed_limit, supervision=supervision, chaos=chaos)
        encoded = []
        for i, request in enumerate(requests):
            payload, tags = encode_request(request)
            encoded.append((i, payload, tags, "clean"))
        return fleet.run(encoded)

    def _run_processes(self, frontend: FleetFrontend) -> FleetResult:
        import multiprocessing as mp

        try:
            ctx = mp.get_context("fork")
        except ValueError:  # platforms without fork
            ctx = mp.get_context("spawn")
        jobs = []
        routed = {}
        for wid in self.worker_ids:
            batch = [encode_request(r) for r in frontend.slots[wid].queue]
            frontend.slots[wid].queue.clear()
            routed[wid] = len(batch)
            jobs.append((self.config, wid, batch))
        with ctx.Pool(processes=len(jobs)) as pool:
            summaries = pool.map(_mp_entry, jobs)
        unserved = sum(len(s["unserved"]) for s in summaries
                       if not s["completed"])
        return FleetResult(
            workers=summaries, routed=routed, requests=0,
            dropped=frontend.dropped, spilled=frontend.spilled,
            rerouted=0, unserved=unserved)
