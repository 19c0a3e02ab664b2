"""Layer spans for the traced run.

The traced run wraps, from the benchmark's side, the public entry
points of each layer (table below).  ``install()`` replaces the module
or class attribute with a timing wrapper and ``uninstall()`` puts the
original back; nothing is wrapped unless the benchmark runs with
``--trace 1``.  Callers that look the attribute up at call time (or, for
bound methods, when their machine is built) reach the wrapper, so
machines must be built after ``install()``.

A span is ``(name, start, end, parent, run)``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``run`` the phase label the
runner set ("setup", "batch-0", ...).  Spans stay in memory until
``write()``.  A span's self time is its duration minus that of its
direct children.

Each per-layer metric is named for the layer it measures;
``LAYER_EFFECTS`` says which end-to-end metric each layer should move,
on which workload.  Metrics ending in ``_s`` are inclusive seconds of
the layer's calls, except ``cpu.self_s``, ``runtime.native_s``,
``taint.range_s``, ``spec.boundary_s`` and ``serve.loop_self_s``, which
are self time (child spans of other layers excluded).  Simulated
counters are summed over every machine run that finished in the window.
"""

from __future__ import annotations

import builtins
import importlib
import json
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

_MISSING = object()

_TAINT_RANGE_OPS = ("set_range", "taint_flags", "any_tainted",
                    "tainted_spans", "export_range", "import_range",
                    "copy_taint")

#: (module, attribute path, span name).  The layer is the span name's
#: prefix, except that ``predecode.*`` spans belong to ``cpu.predecode``.
TRACE_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.shift", "compile_program", "compiler.compile"),
    ("repro.compiler.pipeline", "parse", "compiler.parse"),
    ("repro.compiler.irgen", "IRGenerator.add_unit", "compiler.irgen"),
    ("repro.compiler.irgen", "IRGenerator.finish", "compiler.irgen"),
    ("repro.compiler.pipeline", "lower_function", "compiler.lower"),
    ("repro.compiler.instrument", "ShiftInstrumenter.instrument",
     "compiler.instrument"),
    ("repro.cpu.predecode", "predecode", "predecode.uops"),
    ("repro.cpu.predecode", "predecode_fused", "predecode.fused"),
    # Builtin compile() as seen by the predecoder: set-up and lazy
    # fused-block builds both pay it.
    ("repro.cpu.predecode", "compile", "predecode.codegen"),
    ("repro.cpu.core", "CPU.run", "cpu.run"),
    ("repro.cpu.core", "CPU.run_slice", "cpu.run"),
    ("repro.runtime.machine", "Machine.__init__", "runtime.build"),
    ("repro.runtime.machine", "Machine.run", "runtime.run"),
    ("repro.runtime.guest_os", "GuestOS.native", "runtime.native"),
    ("repro.runtime.guest_os", "GuestOS.syscall", "runtime.syscall"),
    *(("repro.taint.bitmap", f"TaintMap.{op}", "taint.range")
      for op in _TAINT_RANGE_OPS),
    ("repro.resil.recovery", "ResilienceSupervisor.checkpoint_now",
     "resil.capture"),
    ("repro.resil.recovery", "ResilienceSupervisor._recover",
     "resil.restore"),
    ("repro.adaptive.controller", "AdaptiveController.on_boundary",
     "adaptive.boundary"),
    *(("repro.spec.controller", f"SpeculationController.{fn}",
       "spec.boundary")
      for fn in ("before_native", "on_boundary", "handle_trip", "finalize")),
    ("repro.spec.watch", "TaintWatch.build", "spec.watch"),
    ("repro.fleet.driver", "build_worker", "fleet.build_worker"),
    ("repro.serve.simclock", "run_worker", "serve.model"),
    ("repro.serve.simclock", "ServeSim.run", "serve.loop"),
)

#: Layer -> the end-to-end metrics it should move, and where.
LAYER_EFFECTS: Dict[str, str] = {
    "compiler": "setup_s, most on kernels",
    "cpu.predecode": "setup_s on every workload; run_s on serve-open",
    "cpu": "run_s and sim_overhead on kernels; req_per_s on "
           "store-speculate; little on serve-open",
    "runtime": "req_per_s on web-recover; about zero on kernels",
    "taint": "req_per_s on web-recover; about zero on kernels",
    "resil": "req_per_s on web-recover; zero on kernels and "
             "store-speculate",
    "adaptive": "req_per_s and sim_cycles_per_req on store-speculate",
    "spec": "req_per_s and sim_cycles_per_req on store-speculate",
    "fleet": "run_s and sim_p99_cycles on serve-open only",
    "serve": "run_s and sim_p99_cycles on serve-open only",
}

#: Per-layer metrics and their units, in report order.
PER_LAYER_UNITS: Dict[str, str] = {
    "compiler.parse_s": "s", "compiler.irgen_s": "s",
    "compiler.lower_s": "s", "compiler.instrument_s": "s",
    "compiler.functions": "count", "compiler.instructions": "count",
    "predecode.uops_s": "s", "predecode.pcs": "count",
    "predecode.codegen_s": "s", "predecode.codegen_calls": "count",
    "cpu.self_s": "s", "cpu.instructions": "count", "cpu.sim_mips": "MIPS",
    "cpu.cycles": "cycles", "cpu.stall_cycles": "cycles",
    "cache.l1.misses": "count", "shift.instrumentation_cycles": "cycles",
    "runtime.native_s": "s", "runtime.native_calls": "count",
    "runtime.syscall_calls": "count",
    "taint.range_s": "s", "taint.range_ops": "count",
    "taint.live_bytes": "bytes",
    "resil.capture_s": "s", "resil.captures": "count",
    "resil.restore_s": "s", "resil.recoveries": "count",
    "resil.checkpoint_bytes": "bytes",
    "adaptive.switches": "count", "adaptive.boundary_s": "s",
    "spec.epochs": "count", "spec.commits": "count",
    "spec.rollbacks": "count", "spec.commit_ratio": "ratio",
    "spec.wasted_instructions": "count", "spec.boundary_s": "s",
    "spec.watch_s": "s",
    "fleet.build_worker_s": "s", "fleet.workers_built": "count",
    "serve.model_s": "s", "serve.payloads_measured": "count",
    "serve.loop_self_s": "s", "serve.requests": "count",
    "serve.peak_workers": "count", "serve.max_queue_depth": "count",
    "trace.unattributed_s": "s", "trace.overhead_s": "s",
}


def layer_of(span_name: str) -> str:
    prefix = span_name.split(".", 1)[0]
    return "cpu.predecode" if prefix == "predecode" else prefix


def _result_size(name: str) -> Optional[Callable[[object], int]]:
    """Work a span did, read from its return value."""
    if name == "compiler.compile":
        return lambda compiled: len(compiled.program.code)
    if name == "predecode.uops":
        return len
    return None


def _machine_counters(machine) -> Dict[str, float]:
    """Simulated counters of one machine after its run."""
    counters = machine.counters
    out = {
        "cpu.instructions": counters.instructions,
        "cpu.cycles": counters.cycles,
        "cpu.stall_cycles": counters.stall_cycles,
        "cache.l1.misses": machine.cpu.caches.l1.stats.misses,
        "shift.instrumentation_cycles": counters.instrumentation_cycles(),
        "taint.live_bytes": machine.taint_map.live_bytes,
    }
    if machine.resil is not None:
        out["resil.recoveries"] = machine.resil.recoveries
        out["resil.checkpoint_bytes"] = machine.resil.bytes_captured
    if machine.adaptive is not None:
        out["adaptive.switches"] = (machine.adaptive.switches_to_fast
                                    + machine.adaptive.switches_to_track)
    if machine.spec is not None:
        spec = machine.spec
        out["spec.epochs"] = spec.epochs
        out["spec.commits"] = spec.commits
        out["spec.rollbacks"] = spec.rollbacks
        out["spec.wasted_instructions"] = spec.wasted_instructions
    return out


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, int, str]] = []
        self.run = "setup"
        #: (run, span name) -> work counted from return values.
        self.sizes: Dict[Tuple[str, str], int] = defaultdict(int)
        #: run -> simulated counters summed over finished machine runs.
        self.counters: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------

    def _wrap(self, fn: Callable, name: str) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        size = _result_size(name)
        machine_run = name == "runtime.run"

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run)
                if size is not None and result is not None:
                    self.sizes[(self.run, name)] += size(result)
                if machine_run:
                    totals = self.counters[self.run]
                    for key, value in _machine_counters(args[0]).items():
                        totals[key] += value

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every trace point; uninstall() before installing again."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, path, name in TRACE_POINTS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = vars(owner).get(attr, _MISSING)
            if raw is _MISSING and attr == "compile":
                fn = builtins.compile
            elif isinstance(raw, classmethod):
                fn = raw.__func__
            elif raw is _MISSING:
                raise AttributeError(f"{module_name}.{path} not found")
            else:
                fn = raw
            wrapped = self._wrap(fn, name)
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every original attribute."""
        for owner, attr, raw in reversed(self._saved):
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)
        self._saved.clear()

    # -- analysis --------------------------------------------------------

    def stats(self, runs: Iterable[str]) -> Dict[str, Dict[str, float]]:
        """span name -> calls, outer calls, inclusive and self seconds."""
        runs = set(runs)
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for i, (name, start, end, parent, run) in enumerate(spans):
            if run not in runs:
                continue
            entry = out.setdefault(name, {"calls": 0, "outer": 0,
                                          "incl": 0.0, "self": 0.0,
                                          "top": 0.0})
            entry["calls"] += 1
            if parent < 0 or spans[parent][0] != name:
                entry["outer"] += 1
            entry["incl"] += end - start
            entry["self"] += end - start - child[i]
            if parent < 0:
                entry["top"] += end - start
        return out

    def layer_metrics(self, runs: Tuple[str, ...], wall: float,
                      outcome: Dict[str, float]) -> Dict[str, float]:
        """The per-layer metrics over the given runs.

        ``wall`` is the runs' measured wall time and ``outcome`` holds
        the values only the workload knows (serve.* results).
        """
        st = self.stats(runs)

        def get(name: str, key: str) -> float:
            return st.get(name, {}).get(key, 0)

        def size(name: str) -> int:
            return sum(self.sizes.get((run, name), 0) for run in runs)

        sim: Dict[str, float] = defaultdict(float)
        for run in runs:
            for key, value in self.counters.get(run, {}).items():
                sim[key] += value
        cpu_self = get("cpu.run", "self")
        epochs = sim["spec.epochs"]
        metrics = {
            "compiler.parse_s": get("compiler.parse", "incl"),
            "compiler.irgen_s": get("compiler.irgen", "incl"),
            "compiler.lower_s": get("compiler.lower", "incl"),
            "compiler.instrument_s": get("compiler.instrument", "incl"),
            "compiler.functions": get("compiler.lower", "calls"),
            "compiler.instructions": size("compiler.compile"),
            "predecode.uops_s": get("predecode.uops", "incl"),
            "predecode.pcs": size("predecode.uops"),
            "predecode.codegen_s": get("predecode.codegen", "incl"),
            "predecode.codegen_calls": get("predecode.codegen", "calls"),
            "cpu.self_s": cpu_self,
            "cpu.instructions": sim["cpu.instructions"],
            "cpu.sim_mips": (sim["cpu.instructions"] / cpu_self / 1e6
                             if cpu_self else 0.0),
            "cpu.cycles": sim["cpu.cycles"],
            "cpu.stall_cycles": sim["cpu.stall_cycles"],
            "cache.l1.misses": sim["cache.l1.misses"],
            "shift.instrumentation_cycles":
                sim["shift.instrumentation_cycles"],
            "runtime.native_s": get("runtime.native", "self"),
            "runtime.native_calls": get("runtime.native", "calls"),
            "runtime.syscall_calls": get("runtime.syscall", "calls"),
            "taint.range_s": get("taint.range", "self"),
            "taint.range_ops": get("taint.range", "outer"),
            "taint.live_bytes": sim["taint.live_bytes"],
            "resil.capture_s": get("resil.capture", "incl"),
            "resil.captures": get("resil.capture", "calls"),
            "resil.restore_s": get("resil.restore", "incl"),
            "resil.recoveries": sim["resil.recoveries"],
            "resil.checkpoint_bytes": sim["resil.checkpoint_bytes"],
            "adaptive.switches": sim["adaptive.switches"],
            "adaptive.boundary_s": get("adaptive.boundary", "self"),
            "spec.epochs": epochs,
            "spec.commits": sim["spec.commits"],
            "spec.rollbacks": sim["spec.rollbacks"],
            "spec.commit_ratio": (sim["spec.commits"] / epochs
                                  if epochs else 0.0),
            "spec.wasted_instructions": sim["spec.wasted_instructions"],
            "spec.boundary_s": get("spec.boundary", "self"),
            "spec.watch_s": get("spec.watch", "incl"),
            "fleet.build_worker_s": get("fleet.build_worker", "incl"),
            "fleet.workers_built": get("fleet.build_worker", "calls"),
            "serve.model_s": get("serve.model", "incl"),
            "serve.loop_self_s": get("serve.loop", "self"),
            "trace.unattributed_s": wall - sum(e["top"] for e in st.values()),
        }
        metrics.update(outcome)
        return metrics

    def table(self, runs: Tuple[str, ...], wall: float) -> str:
        """Self time per layer and per span over the given runs."""
        st = self.stats(runs)
        by_layer: Dict[str, float] = defaultdict(float)
        for name, entry in st.items():
            by_layer[layer_of(name)] += entry["self"]
        lines = [f"{'layer / span':34s} {'calls':>8s} {'incl s':>9s} "
                 f"{'self s':>9s} {'self %':>7s}  moves"]
        for layer in sorted(by_layer, key=by_layer.get, reverse=True):
            share = 100.0 * by_layer[layer] / wall if wall else 0.0
            lines.append(f"{layer:34s} {'':>8s} {'':>9s} "
                         f"{by_layer[layer]:9.4f} {share:6.1f}%  "
                         f"{LAYER_EFFECTS.get(layer, '')}")
            for name in sorted(n for n in st if layer_of(n) == layer):
                e = st[name]
                lines.append(f"  {name:32s} {e['calls']:8d} "
                             f"{e['incl']:9.4f} {e['self']:9.4f}")
        covered = sum(by_layer.values())
        lines.append(f"{'(unattributed)':34s} {'':>8s} {'':>9s} "
                     f"{wall - covered:9.4f}")
        return "\n".join(lines)

    def write(self, path) -> None:
        """All spans as JSON lines."""
        with open(path, "w") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "run": run}) + "\n")

