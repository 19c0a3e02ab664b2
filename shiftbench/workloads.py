"""The four benchmark workloads.

Each workload is generated from the benchmark seed alone (no ``hash()``,
no wall clock), runs in the calling process, and splits into phases the
runner times separately:

* ``setup()``   compile, build the first batch's machines and force their
  per-pc predecode (what ``setup_s`` measures);
* ``steps()``   one batch, the timed unit of work (what ``run_s``
  measures), as a list of calls that the runner times one by one;
* ``collect()`` reduce the finished batch to plain data (untimed);
* ``prepare()`` build fresh machines for the next batch (untimed);
* ``reference()`` the uninstrumented runs that ``sim_overhead`` and the
  output checks compare against (after the timed phase);
* ``check(data)`` count failed operations and derive the simulated
  metrics, which must repeat exactly for a seed.

Every workload reports every end-to-end metric.  A "request" is one
kernel run for ``kernels``, one connection for the servers, and one
open-loop arrival for ``serve-open``.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.apps.spec import BENCHMARKS
from repro.apps.specstore import exec_request, stor_request, sum_request
from repro.apps.specstore import get_request as store_get
from repro.apps.webserver import (make_request, make_site, overflow_request,
                                  traversal_request)
from repro.compiler.instrument import ShiftOptions
from repro.core.shift import build_machine
from repro.cpu.faults import Fault, RunawayError
from repro.fleet.driver import FleetConfig, build_worker
from repro.harness.runners import (PERF_OPTIONS, build_web_machine,
                                   compiled_spec, spec_policy,
                                   specstore_policy)
from repro.serve import (AutoscalerConfig, LoadConfig, LoadPhase, ServeSim,
                         ServiceModel, generate)
from repro.serve.simclock import percentile
from repro.taint.engine import SecurityAlert

#: Strict byte-granularity SHIFT for the servers: the planted overflow
#: is a corrupted-pointer load that only the default pointer policy
#: catches (the configuration resilbench and servebench use).
STRICT = ShiftOptions(granularity=1)
UNINSTRUMENTED = ShiftOptions(mode="none")

#: Per-request instruction budget of recover-mode servers.
WATCHDOG = 2_000_000

#: HTTP response header of the resil web server.
RESPONSE_HEADER = b"HTTP/1.0 200 OK\r\nServer: mini-httpd\r\n\r\n"


def rng_for(seed: int, label: str) -> random.Random:
    """An independent, process-stable random stream per (seed, label)."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def host_name(rng: random.Random) -> str:
    """A seeded Host header value; its length moves per-request cycles."""
    letters = "abcdefghijklmnopqrstuvwxyz0123456789"
    return "bench-" + "".join(rng.choice(letters)
                              for _ in range(rng.randrange(4, 40)))


def http_get(path: str, host: str) -> bytes:
    """One HTTP/1.0 GET for ``path``."""
    return f"GET {path} HTTP/1.0\r\nHost: {host}\r\n\r\n".encode()


def ready(machine, engine: str):
    """Force per-pc predecode and the fused table before any timing."""
    if engine == "predecoded":
        machine.cpu._ensure_uops()
        machine.cpu._ensure_fused()
    return machine


def stamp_accepts(machine) -> List[Tuple[Optional[int], float, int]]:
    """Record (connection index, cycles, instructions) at every accept.

    Wraps the accept of this one machine's network (not a layer
    function), so the per-request cycles of a closed loop cost one
    Python call per request.  A rollback replays accepts; the last
    stamp of a connection wins.
    """
    stamps: List[Tuple[Optional[int], float, int]] = []
    net, cpu = machine.net, machine.cpu
    accept = net.accept

    def stamped():
        conn = accept()
        counters = cpu.counters
        stamps.append((conn.index if conn is not None else None,
                       counters.cycles, counters.instructions))
        return conn

    net.accept = stamped
    return stamps


def request_spans(stamps, end: Tuple[float, int]) -> Dict[int, Tuple]:
    """index -> (start cycles, end cycles, start instr, end instr).

    A closed loop serves connections in arrival order, so a request
    ends where the next accept (or the guest's exit) begins.
    """
    last = {}
    for index, cycles, instructions in stamps:
        last[index] = (cycles, instructions)
    final = last.pop(None, end)
    order = sorted(last)
    marks = [last[i] for i in order] + [final]
    return {i: (marks[k][0], marks[k + 1][0], marks[k][1], marks[k + 1][1])
            for k, i in enumerate(order)}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def latency_metrics(latencies: Sequence[float]) -> Dict[str, float]:
    """sim_cycles_per_req / sim_p50_cycles / sim_p99_cycles."""
    return {
        "sim_cycles_per_req": sum(latencies) / len(latencies),
        "sim_p50_cycles": percentile(latencies, 50.0),
        "sim_p99_cycles": percentile(latencies, 99.0),
    }


@dataclass
class Check:
    """What one batch's outputs were worth."""

    attempted: int
    failed: int
    #: sim_* end-to-end metrics (exactly repeatable for a seed).
    sim: Dict[str, float]
    #: sim plus modelled counters; must equal across every batch.
    signature: Dict[str, object]


class Workload:
    """Base class; see the module docstring for the phase contract."""

    name = ""
    #: Requests per batch (for req_per_s).
    requests = 0

    def __init__(self, seed: int, size: str = "full",
                 engine: str = "predecoded") -> None:
        if size not in ("full", "small"):
            raise ValueError(f"unknown size {size!r}")
        self.seed = seed
        self.small = size == "small"
        self.engine = engine

    def inputs(self) -> bytes:
        """Canonical bytes of every generated input (for the digest)."""
        raise NotImplementedError

    def inputs_digest(self) -> str:
        return digest(self.inputs())

    def setup(self) -> None:
        self.prepare()

    def prepare(self) -> None:
        raise NotImplementedError

    def steps(self) -> List[Callable[[], object]]:
        raise NotImplementedError

    def collect(self) -> Dict:
        raise NotImplementedError

    def reference(self) -> None:
        raise NotImplementedError

    def check(self, data: Dict) -> Check:
        raise NotImplementedError


# -- kernels --------------------------------------------------------------


class Kernels(Workload):
    """Figure-7 SPEC kernels, byte SHIFT, /data tainted, as one batch."""

    name = "kernels"
    #: Bit-twiddling numeric, pointer-chasing memory and text-parsing
    #: mixes; together about 3 s of host time per batch at ref scale.
    #: mcf's cycles do not depend on its input, so it is not the median.
    KERNELS = ("crafty", "mcf", "parser")

    def __init__(self, seed: int, size: str = "full",
                 engine: str = "predecoded") -> None:
        super().__init__(seed, size, engine)
        self.scale = "test" if self.small else "ref"
        self.benches = [BENCHMARKS[k] for k in self.KERNELS]
        self.data = [
            b.input_maker(rng_for(seed, f"kernel:{b.name}"),
                          b.params[self.scale])
            for b in self.benches]
        self.requests = len(self.benches)
        self.machines: List = []
        self.errors: List[str] = []
        self.base: List[Tuple[int, float]] = []

    def inputs(self) -> bytes:
        return b"".join(self.data)

    def _build(self, options: ShiftOptions) -> List:
        return [
            ready(build_machine(compiled_spec(b, options, self.scale),
                                policy_config=spec_policy(False),
                                files={"/data": data}, engine=self.engine),
                  self.engine)
            for b, data in zip(self.benches, self.data)]

    def prepare(self) -> None:
        self.machines = self._build(PERF_OPTIONS["byte"])
        self.errors = [""] * len(self.machines)

    def _run(self, index: int) -> None:
        try:
            self.machines[index].run()
        except (Fault, RunawayError, SecurityAlert) as exc:
            self.errors[index] = f"{type(exc).__name__}: {exc}"

    def steps(self) -> List[Callable[[], object]]:
        return [partial(self._run, i) for i in range(len(self.machines))]

    def collect(self) -> Dict:
        return {"runs": [(m.read_global("result"), m.counters.cycles,
                          m.counters.instructions) for m in self.machines],
                "errors": list(self.errors)}

    def reference(self) -> None:
        base = self._build(PERF_OPTIONS["none"])
        for machine in base:
            machine.run()
        self.base = [(m.read_global("result"), m.counters.cycles)
                     for m in base]

    def check(self, data: Dict) -> Check:
        runs = data["runs"]
        failed = sum(1 for (got, _, _), (want, _), error
                     in zip(runs, self.base, data["errors"])
                     if error or got != want)
        ratios = [cycles / base for (_, cycles, _), (_, base)
                  in zip(runs, self.base)]
        sim = {"sim_overhead": math.exp(
            sum(math.log(r) for r in ratios) / len(ratios))}
        sim.update(latency_metrics([cycles for _, cycles, _ in runs]))
        return Check(len(runs), failed, sim,
                     {**sim, "runs": [list(r) for r in runs],
                      "errors": data["errors"]})


# -- web-recover ----------------------------------------------------------


class WebRecover(Workload):
    """The resil web server in recover mode: a closed loop of one client."""

    name = "web-recover"
    SIZES_KB = (4, 8, 16, 64)
    #: Clean requests per size class, then (traversal, overflow) attacks:
    #: 5% of the stream.
    FULL_MIX = ((120, 80, 60, 25), (8, 7))
    SMALL_MIX = ((8, 6, 4, 2), (1, 1))

    def __init__(self, seed: int, size: str = "full",
                 engine: str = "predecoded") -> None:
        super().__init__(seed, size, engine)
        rng = rng_for(seed, "web-recover")
        host = host_name(rng)
        # Each size class is "about N KB": the exact length is seeded.
        self.site: Dict[str, bytes] = {}
        paths = []
        for kb in self.SIZES_KB:
            path = f"/file{kb}k.bin"
            length = kb * 1024 - rng.randrange(512)
            self.site["/www" + path] = bytes(
                rng.choices(range(32, 127), k=length))
            paths.append(path)
        counts, (traversals, overflows) = (self.SMALL_MIX if self.small
                                           else self.FULL_MIX)
        stream: List[Tuple[str, bytes]] = []
        for path, count in zip(paths, counts):
            stream += [(path, http_get(path, host))] * count
        stream += [("traversal", traversal_request())] * traversals
        stream += [("overflow", overflow_request())] * overflows
        rng.shuffle(stream)
        #: (kind or path, payload) in arrival order; connection i+1.
        self.stream = stream
        self.requests = len(stream)
        self.expected = {
            path: digest(RESPONSE_HEADER + self.site["/www" + path])
            for path in paths}
        self.machine = None
        self.stamps: List = []
        self.base_cycles: Dict[int, float] = {}

    def inputs(self) -> bytes:
        blobs = [p for _, p in self.stream]
        blobs += [k.encode() + v for k, v in sorted(self.site.items())]
        return b"\0".join(blobs)

    def _build(self, options: ShiftOptions):
        machine = build_web_machine(
            "resil", options, files=dict(self.site), engine=self.engine,
            engine_mode="recover", recover_watchdog=WATCHDOG)
        for _, payload in self.stream:
            machine.net.add_request(payload)
        return ready(machine, self.engine), stamp_accepts(machine)

    def prepare(self) -> None:
        self.machine, self.stamps = self._build(STRICT)

    def steps(self) -> List[Callable[[], object]]:
        return [partial(self.machine.run, max_instructions=1_000_000_000)]

    def _spans(self, machine, stamps) -> Dict[int, Tuple]:
        counters = machine.counters
        return request_spans(stamps,
                             (counters.cycles, counters.instructions))

    def collect(self) -> Dict:
        machine = self.machine
        return {
            "responses": {c.index: digest(bytes(c.outbound))
                          for c in machine.net.completed},
            "quarantined": sorted(c.index for c in machine.net.quarantined),
            "incidents": [(i.request_index, i.reason)
                          for i in machine.resil.incidents],
            "spans": self._spans(machine, self.stamps),
            "cycles": machine.counters.cycles,
            "instructions": machine.counters.instructions,
            "captures": machine.resil.checkpoints_taken,
        }

    def reference(self) -> None:
        machine, stamps = self._build(UNINSTRUMENTED)
        machine.run(max_instructions=1_000_000_000)
        self.base_cycles = {i: end - start for i, (start, end, _, _)
                            in self._spans(machine, stamps).items()}

    def check(self, data: Dict) -> Check:
        quarantined = set(data["quarantined"])
        incidents = dict(data["incidents"])
        failed = 0
        clean: List[int] = []
        for index, (kind, _) in enumerate(self.stream, start=1):
            if kind in ("traversal", "overflow"):
                # An attack must be rolled back on a security alert.
                ok = index in quarantined and incidents.get(index) == "alert"
            else:
                # Served with its file's bytes, and no alert raised.
                ok = (index not in quarantined and index not in incidents
                      and data["responses"].get(index)
                      == self.expected[kind])
                clean.append(index)
            failed += not ok
        latencies = [data["spans"][i][1] - data["spans"][i][0]
                     for i in clean]
        sim = {"sim_overhead": sum(latencies)
               / sum(self.base_cycles[i] for i in clean)}
        sim.update(latency_metrics(latencies))
        signature = {**sim, "cycles": data["cycles"],
                     "instructions": data["instructions"],
                     "captures": data["captures"],
                     "incidents": data["incidents"]}
        return Check(len(self.stream), failed, sim, signature)


# -- store-speculate ------------------------------------------------------


class StoreSpeculate(Workload):
    """The contained-taint store under speculation: a closed loop."""

    name = "store-speculate"
    #: (SUM, benign GET trips, EXEC injections) after the one STOR.
    FULL_MIX = (10, 1, 1)
    SMALL_MIX = (5, 1, 1)

    def __init__(self, seed: int, size: str = "full",
                 engine: str = "predecoded") -> None:
        super().__init__(seed, size, engine)
        rng = rng_for(seed, "store-speculate")
        letters = "abcdefghijklmnopqrstuvwxyz"
        # The tainted value carries a shell metacharacter, so every
        # EXEC of it is an H4 command injection.
        value = ("report-%s.txt;rm -rf /tmp/%s" % (
            "".join(rng.choice(letters) for _ in range(rng.randrange(1, 30))),
            "".join(rng.choice(letters) for _ in range(rng.randrange(1, 30)))
        )).encode()
        sums, gets, execs = self.SMALL_MIX if self.small else self.FULL_MIX
        # The store ignores what follows "SUM"; the seeded padding only
        # varies the request's size.
        body = ([("SUM", sum_request() + b" " + "".join(
                    rng.choice(letters)
                    for _ in range(rng.randrange(40))).encode())
                 for _ in range(sums)]
                + [("GET", store_get(0))] * gets
                + [("EXEC", exec_request(0))] * execs)
        rng.shuffle(body)
        self.stream = [("STOR", stor_request(0, value))] + body
        self.requests = len(self.stream)
        self.machine = None
        self.stamps: List = []
        self.base: Dict = {}

    def inputs(self) -> bytes:
        return b"\0".join(p for _, p in self.stream)

    def _build(self, options: ShiftOptions, adaptive: str):
        machine = build_web_machine(
            "specstore", options, policy_config=specstore_policy(),
            files={}, engine=self.engine, engine_mode="record",
            adaptive=adaptive)
        for _, payload in self.stream:
            machine.net.add_request(payload)
        return ready(machine, self.engine), stamp_accepts(machine)

    def prepare(self) -> None:
        self.machine, self.stamps = self._build(STRICT, "speculate")

    def steps(self) -> List[Callable[[], object]]:
        return [partial(self.machine.run, max_instructions=2_000_000_000)]

    @staticmethod
    def _collect(machine, stamps) -> Dict:
        counters = machine.counters
        return {
            "responses": {c.index: digest(bytes(c.outbound))
                          for c in machine.net.completed},
            "alerts": [(a.policy_id, a.instruction_count)
                       for a in machine.alerts],
            "spans": request_spans(stamps, (counters.cycles,
                                            counters.instructions)),
            "cycles": counters.cycles,
            "instructions": counters.instructions,
        }

    def collect(self) -> Dict:
        data = self._collect(self.machine, self.stamps)
        spec = self.machine.spec
        data["spec"] = (spec.epochs, spec.commits, spec.rollbacks,
                        spec.wasted_instructions)
        return data

    def reference(self) -> None:
        machine, stamps = self._build(UNINSTRUMENTED, "none")
        machine.run(max_instructions=2_000_000_000)
        self.base = self._collect(machine, stamps)

    def check(self, data: Dict) -> Check:
        spans = data["spans"]
        # Attribute each alert to the request whose instructions hold it.
        alerted: Dict[int, List[str]] = {}
        for policy, count in data["alerts"]:
            owner = next((i for i, (_, _, lo, hi) in spans.items()
                          if lo <= count < hi), None)
            alerted.setdefault(owner, []).append(policy)
        failed = sum(1 for owner in alerted
                     if owner is None or self.stream[owner - 1][0] != "EXEC")
        for index, (kind, _) in enumerate(self.stream, start=1):
            ok = (data["responses"].get(index) is not None
                  and data["responses"][index]
                  == self.base["responses"].get(index))
            if kind == "EXEC":
                ok = ok and alerted.get(index) == ["H4"]
            failed += not ok
        latencies = [end - start for start, end, _, _ in spans.values()]
        base = [end - start for start, end, _, _
                in self.base["spans"].values()]
        sim = {"sim_overhead": sum(latencies) / sum(base)}
        sim.update(latency_metrics(latencies))
        signature = {**sim, "cycles": data["cycles"],
                     "instructions": data["instructions"],
                     "spec": list(data["spec"]),
                     "alerts": [list(a) for a in data["alerts"]]}
        return Check(len(self.stream), failed, sim, signature)


# -- serve-open -----------------------------------------------------------


class ServeOpen(Workload):
    """Open-loop independent users over the autoscaled recover-mode fleet."""

    name = "serve-open"
    SIZES_KB = (1, 2, 3, 4, 6, 8, 10, 12, 16, 20, 24, 32)
    #: Shares of the clean requests: falling with size, plus one hot
    #: 20 KB page that about a quarter of the users fetch.  Requests that
    #: did not queue all have their file's service time, so the latency
    #: distribution has a step at each size, and a median near the edge
    #: of a step jumps between seeds.  The hot page's step spans about
    #: the 45th to the 54th percentile: p50 is the cycles of an unqueued
    #: 20 KB request, and queueing shows in p99.
    WEIGHTS = (12, 11, 10, 9, 8, 7, 6, 5, 4, 26, 2, 1)
    #: Offered load in requests per 1e6 cycles: fixed, not derived from
    #: measured capacity, so a cheaper modelled request shows as a lower
    #: p99.  It is 0.85 of two workers' capacity at the commit that
    #: introduced the benchmark (mean service about 284k cycles).
    OFFERED_LOAD = 6.0
    #: Autoscaler tick (about a fifth of that mean service time).
    TICK_CYCLES = 56_000.0
    FULL_REQUESTS = 5000
    SMALL_REQUESTS = 300

    def __init__(self, seed: int, size: str = "full",
                 engine: str = "predecoded") -> None:
        super().__init__(seed, size, engine)
        count = self.SMALL_REQUESTS if self.small else self.FULL_REQUESTS
        host = host_name(rng_for(seed, "serve-open"))
        # Generate a little more than needed and keep exactly ``count``
        # arrivals, so every seed offers the same amount of work.
        workload = generate(LoadConfig(
            seed=seed,
            phases=[LoadPhase(1.1 * count * 1e6 / self.OFFERED_LOAD,
                              self.OFFERED_LOAD)],
            sizes_kb=self.SIZES_KB, size_weights=self.WEIGHTS,
            session_length_mean=1.0, arrival_sigma=0.5,
            attack_fraction=0.05))[:count]
        # Clean requests get the sizes in exact proportion to WEIGHTS,
        # in seeded order (the generator's own draws would move every
        # share by a few percent between seeds), and the seeded Host.
        sizes = iter(self.stratified_sizes(
            sum(r.kind == "clean" for r in workload),
            rng_for(seed, "serve-open-sizes")))
        self.workload = [
            r if r.kind != "clean" else replace(
                r, payload=make_request(next(sizes)).replace(
                    b"Host: bench", b"Host: " + host.encode()))
            for r in workload]
        self.requests = len(self.workload)
        self.config = FleetConfig(variant="resil", options=STRICT,
                                  sizes=self.SIZES_KB, engine=engine,
                                  recover_watchdog=WATCHDOG)
        self.autoscaler = AutoscalerConfig(
            min_workers=2, max_workers=8, interval=self.TICK_CYCLES,
            cooldown_ticks=3)
        self.result = None
        self.service: Optional[ServiceModel] = None
        self.base: Optional[ServiceModel] = None
        self.expected: Dict[bytes, str] = {}

    @classmethod
    def stratified_sizes(cls, count: int, rng: random.Random) -> List[int]:
        """``count`` sizes in WEIGHTS proportion (largest remainders
        round), shuffled by ``rng``."""
        total = sum(cls.WEIGHTS)
        exact = [count * w / total for w in cls.WEIGHTS]
        counts = [math.floor(x) for x in exact]
        by_remainder = sorted(range(len(exact)),
                              key=lambda i: counts[i] - exact[i])
        for i in by_remainder[:count - sum(counts)]:
            counts[i] += 1
        sizes = [size for size, n in zip(cls.SIZES_KB, counts)
                 for _ in range(n)]
        rng.shuffle(sizes)
        return sizes

    def inputs(self) -> bytes:
        return b"\0".join(b"%r:%d:%s:" % (r.arrival, r.session,
                                          r.kind.encode()) + r.payload
                          for r in self.workload)

    def setup(self) -> None:
        # Compile the worker program and pay one worker's predecode, so
        # the timed phase starts from a process that has served before.
        ready(build_worker(self.config, "setup"), self.engine)

    def prepare(self) -> None:
        self.result = None

    def steps(self) -> List[Callable[[], object]]:
        return [self._serve]

    def _serve(self) -> None:
        self.service = ServiceModel(self.config)
        self.result = ServeSim(
            workers=2, seed=self.seed, service_model=self.service,
            autoscaler=self.autoscaler).run(self.workload)

    def collect(self) -> Dict:
        result = self.result
        return {
            "records": [(r.index, r.kind, r.outcome, r.response_sha,
                         r.alerts, r.latency if r.complete >= 0.0 else None,
                         r.service) for r in result.records],
            "digest": result.digest(),
            "payloads": self.service.measured,
            "peak_workers": result.peak_workers,
            "max_queue_depth": result.max_queue_depth,
        }

    def reference(self) -> None:
        self.base = ServiceModel(replace(self.config,
                                         options=UNINSTRUMENTED))
        site = make_site(self.SIZES_KB)
        for r in self.workload:
            if r.kind == "clean" and r.payload not in self.expected:
                path = r.payload.split(b" ")[1].decode()
                self.expected[r.payload] = digest(
                    RESPONSE_HEADER + site["/www" + path])
                self.base.cost(r.payload)

    def check(self, data: Dict) -> Check:
        # Dropped and shed arrivals fail below: clean ones were not
        # served, attacks were not quarantined.
        failed = 0
        latencies: List[float] = []
        shift_cycles = base_cycles = 0.0
        for index, kind, outcome, sha, alerts, latency, service in \
                data["records"]:
            payload = self.workload[index].payload
            if kind == "clean":
                ok = (outcome == "served" and alerts == 0
                      and sha == self.expected[payload])
                shift_cycles += service
                base_cycles += self.base.cost(payload).cycles
            else:
                ok = outcome == "quarantined"
            failed += not ok
            if latency is not None:
                latencies.append(latency)
        sim = {"sim_overhead": shift_cycles / base_cycles}
        sim.update(latency_metrics(latencies))
        # Latency here runs from the scheduled arrival; per-request
        # cost is the service time alone.
        sim["sim_cycles_per_req"] = (
            sum(r[6] for r in data["records"]) / len(data["records"]))
        signature = {**sim, "digest": data["digest"],
                     "payloads": data["payloads"],
                     "peak_workers": data["peak_workers"],
                     "max_queue_depth": data["max_queue_depth"]}
        return Check(len(data["records"]), failed, sim, signature)


WORKLOADS = {w.name: w for w in (Kernels, WebRecover, StoreSpeculate,
                                 ServeOpen)}
