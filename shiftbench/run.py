"""The repository benchmark: host time and simulated cost, end to end.

Run from the root of a checkout::

    python3 shiftbench/run.py --workload kernels --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py``): ``kernels``, ``web-recover``,
``store-speculate``, ``serve-open``.  Inputs depend on ``--seed`` only.

Untraced (``--trace 0``) the run

1. byte-compiles ``src`` so no sample pays for it;
2. measures ``setup_s`` in fresh processes: this script re-run with
   ``--setup-only``, timed from its first line until the first batch's
   machines are built and predecoded; the median of ``SETUP_SAMPLES``;
3. sets up once more in this process and runs one warm-up batch, then
   repeats the workload's batch for ``--seconds`` (machines are rebuilt,
   untimed, between batches); ``run_s`` and ``req_per_s`` are medians
   over those batches;
4. runs the uninstrumented references and checks every batch's outputs:
   failures go to ``failed``, and every batch must reproduce the first
   one's simulated metrics and counters exactly.

Host times (``setup_s``, ``run_s``, ``req_per_s``) are scaled by the
host-speed probe timed next to each of them (see ``PROBE_REF_S``).

Traced (``--trace 1``) it wraps the layers' entry points (``tracing.py``),
sets up and runs the first batch traced, then alternates untraced and
traced batches for ``--seconds`` more.  It prints a self-time
table, reports the per-layer metrics of the traced set-up plus first
batch, and ``trace.overhead_s`` = median traced minus median untraced
batch time.  The simulated values of traced and untraced batches must
match.

The last line of standard output is the result JSON: ``correct``,
``attempted``, ``failed`` (so ``error_rate`` = failed / attempted) and
``metrics``.  A provenance line precedes it, and the full record
(provenance, batch times, signature) and the spans go to
``.bench_out/``.
"""

import time

_T0 = time.perf_counter()  # setup_s counts from here

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Fresh processes measured for setup_s.
SETUP_SAMPLES = 3
#: Wall-clock limit for one set-up process.
SETUP_TIMEOUT = 120

#: Host-speed probe.  On a shared host the interpreter's speed drifts by
#: tens of percent over seconds, so a fixed loop of pure-Python work
#: (independent of the program under test) is timed between every two
#: timed steps, and host times are reported scaled by PROBE_REF_S / probe
#: time: seconds on a host where the probe takes PROBE_REF_S, about its
#: time on a 2-vCPU x86-64 VM under Python 3.11.  Raw seconds stay in the
#: result file.
PROBE_LOOPS = 480_000
PROBE_REF_S = 0.1

END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "req_per_s": "1/s",
    "sim_overhead": "ratio", "sim_cycles_per_req": "cycles",
    "sim_p50_cycles": "cycles", "sim_p99_cycles": "cycles",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="shiftbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("kernels", "web-recover", "store-speculate",
                                 "serve-open"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small inputs, for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = git / ref
            if ref_file.is_file():
                return ref_file.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def provenance(args, inputs_digest: str) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "size": args.size,
        "seconds": args.seconds,
        "cold_process": True,
        "traced": bool(args.trace),
        "inputs_sha256": inputs_digest,
    }


def _mix(value: int, i: int) -> int:
    return (value * 31 + i) & 0xFFFF


def probe() -> float:
    """Seconds this host now takes for a fixed slice of interpreter work."""
    table = {}
    value = 0
    start = time.perf_counter()
    for i in range(PROBE_LOOPS):
        value = _mix(value, i)
        table[i & 1023] = value
    return time.perf_counter() - start


def make_workload(args):
    from workloads import WORKLOADS

    return WORKLOADS[args.workload](args.seed, args.size)


def setup_only(args) -> dict:
    """One set-up sample: this process's start to ready-to-run."""
    workload = make_workload(args)
    workload.setup()
    setup_s = time.perf_counter() - _T0
    return {"setup_s": setup_s, "probe_s": probe(),
            "inputs_sha256": workload.inputs_digest()}


def setup_samples(args) -> list:
    """setup_s measured in fresh processes, one after another."""
    samples = []
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0", "--size", args.size, "--setup-only"]
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=SETUP_TIMEOUT, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def scaled(seconds: float, probe_s: float) -> float:
    """Host seconds rescaled to the reference host speed."""
    return seconds * PROBE_REF_S / probe_s


def run_batch(workload, before: float) -> tuple:
    """Time one batch step by step: (raw s, scaled s, last probe).

    ``before`` is a probe taken just before the batch; another follows
    every step, so each step is scaled by the host speed measured on
    both sides of it.
    """
    raw = scaled_total = 0.0
    for step in workload.steps():
        start = time.perf_counter()
        step()
        wall = time.perf_counter() - start
        after = probe()
        raw += wall
        scaled_total += scaled(wall, (before + after) / 2)
        before = after
    return raw, scaled_total, before


def timed_batches(workload, seconds: float, first_ready: bool = True):
    """Run one batch, then repeat it until ``seconds`` have passed.

    Returns (raw batch times, scaled batch times, collected data); with
    ``seconds`` 0 exactly one batch runs.
    """
    raws, scaled_times, collected = [], [], []
    deadline = time.perf_counter() + seconds
    last_probe = probe()
    while True:
        if collected or not first_ready:
            workload.prepare()
        # Leave no garbage of the previous batch for this one to collect.
        gc.collect()
        raw, scaled_time, last_probe = run_batch(workload, last_probe)
        raws.append(raw)
        scaled_times.append(scaled_time)
        collected.append(workload.collect())
        if time.perf_counter() + raw > deadline:
            return raws, scaled_times, collected


def judge(workload, collected) -> tuple:
    """(attempted, failed, first batch's Check) over every batch."""
    workload.reference()
    checks = [workload.check(data) for data in collected]
    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    # Simulated results are deterministic: a batch that disagrees with
    # the first is a failure of every operation in it.
    for check in checks[1:]:
        if check.signature != checks[0].signature:
            failed += check.attempted
    return attempted, failed, checks[0]


def untraced(args) -> dict:
    samples = setup_samples(args)
    workload = make_workload(args)
    workload.setup()
    # The warm-up batch alone pays lazy fused-block codegen (a once per
    # process cost, traced as predecode.codegen); run_s is steady state.
    _, _, collected = timed_batches(workload, 0.0)
    walls, runs, timed = timed_batches(workload, args.seconds,
                                       first_ready=False)
    collected += timed
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, first = judge(workload, collected)
    digest = workload.inputs_digest()
    failed += sum(s["inputs_sha256"] != digest for s in samples)
    metrics = {
        "setup_s": statistics.median(scaled(s["setup_s"], s["probe_s"])
                                     for s in samples),
        "run_s": statistics.median(runs),
        "req_per_s": statistics.median(workload.requests / r for r in runs),
        **first.sim,
        "peak_rss_mb": rss_mb,
    }
    return {
        "provenance": provenance(args, digest),
        "attempted": attempted, "failed": failed,
        "metrics": {k: metrics[k] for k in END_TO_END_UNITS},
        "units": END_TO_END_UNITS,
        "setup_samples": samples,
        "batch_walls": walls,
        "batch_scaled": runs,
        "signature": first.signature,
    }


def traced(args) -> dict:
    from tracing import PER_LAYER_UNITS, Tracer

    import workloads  # noqa: F401  (imports every layer before wrapping)

    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    workload = make_workload(args)
    workload.setup()
    setup_wall = time.perf_counter() - start
    tracer.run = "batch-0"
    t_walls, t_scaled, collected = timed_batches(workload, 0.0)
    u_scaled = []
    deadline = time.perf_counter() + args.seconds
    while True:
        # Pairs of untraced and traced batches, so drift in the host hits
        # both sides alike; at least one pair runs.
        start = time.perf_counter()
        tracer.uninstall()
        _, scaled_times, data = timed_batches(workload, 0.0,
                                              first_ready=False)
        u_scaled += scaled_times
        collected += data
        tracer.install()
        tracer.run = f"batch-{len(t_walls)}"
        walls, scaled_times, data = timed_batches(workload, 0.0,
                                                  first_ready=False)
        t_walls += walls
        t_scaled += scaled_times
        collected += data
        now = time.perf_counter()
        if now + (now - start) > deadline:
            break
    tracer.uninstall()
    attempted, failed, first = judge(workload, collected)
    # Traced medians leave out batch 0, which alone pays lazy codegen.
    overhead = (statistics.median(t_scaled[1:])
                - statistics.median(u_scaled))
    window = ("setup", "batch-0")
    wall = setup_wall + t_walls[0]
    serve = first.signature
    outcome = {
        "serve.payloads_measured": serve.get("payloads", 0),
        "serve.requests": (workload.requests
                           if args.workload == "serve-open" else 0),
        "serve.peak_workers": serve.get("peak_workers", 0),
        "serve.max_queue_depth": serve.get("max_queue_depth", 0),
        "trace.overhead_s": overhead,
    }
    metrics = tracer.layer_metrics(window, wall, outcome)
    print(f"self time per layer, set-up + first batch ({wall:.3f} s):")
    print(tracer.table(window, wall))
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    return {
        "provenance": provenance(args, workload.inputs_digest()),
        "attempted": attempted, "failed": failed,
        "metrics": {k: metrics[k] for k in PER_LAYER_UNITS},
        "units": PER_LAYER_UNITS,
        "traced_batch_walls": t_walls,
        "traced_batch_scaled": t_scaled,
        "untraced_batch_scaled": u_scaled,
        "signature": first.signature,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"shiftbench: no program sources under {SRC}; run it from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    if args.setup_only:
        print(json.dumps(setup_only(args)))
        return 0
    import compileall

    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(BENCH_DIR), quiet=1)
    record = traced(args) if args.trace else untraced(args)
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
    print("provenance: " + json.dumps(record["provenance"], sort_keys=True))
    print("signature: " + json.dumps(record["signature"], sort_keys=True,
                                     default=str))
    units = record["units"]
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
