"""The benchmark's own tests.

Run from the root of the repository::

    python3 -m pytest shiftbench/tests -q

Small seeded instances of every workload; a few minutes in all.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
from tracing import TRACE_POINTS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def measure(name: str, engine: str = "predecoded", seed: int = 3):
    """One small batch, judged: (attempted, failed, first Check)."""
    workload = WORKLOADS[name](seed, "small", engine)
    workload.setup()
    _walls, _probes, collected = run.timed_batches(workload, 0.0)
    return run.judge(workload, collected)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_small_instance_correct_repeatable_and_engine_blind(name):
    attempted, failed, first = measure(name)
    assert attempted > 0
    assert failed == 0
    _, failed_again, again = measure(name)
    assert failed_again == 0
    assert again.signature == first.signature
    _, failed_ref, reference = measure(name, engine="reference")
    assert failed_ref == 0
    assert reference.signature == first.signature


def cli(*args, env=None, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "shiftbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, env=env, timeout=600)


def lines(done) -> dict:
    """provenance / signature / result lines of one CLI run."""
    assert done.returncode == 0, done.stderr
    out = done.stdout.strip().splitlines()
    found = {"result": json.loads(out[-1])}
    for line in out:
        for key in ("provenance", "signature"):
            if line.startswith(key + ": "):
                found[key] = json.loads(line[len(key) + 2:])
    return found


def test_inputs_and_simulated_counters_ignore_hash_seed():
    runs = [lines(cli("--workload", "kernels", "--seed", "5",
                      "--seconds", "0", "--trace", "0", "--size", "small",
                      env={**os.environ, "PYTHONHASHSEED": seed}))
            for seed in ("1", "2")]
    first, second = runs
    assert first["provenance"]["inputs_sha256"] == \
        second["provenance"]["inputs_sha256"]
    assert first["signature"] == second["signature"]
    assert first["result"]["correct"] and second["result"]["correct"]


def test_printed_metrics_match_benchmark_json():
    names = {0: SPEC["end_to_end"], 1: SPEC["per_layer"]}
    for trace, declared in names.items():
        result = lines(cli("--workload", "web-recover", "--seed", "2",
                           "--seconds", "0", "--trace", str(trace),
                           "--size", "small"))["result"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        printed = result["metrics"]
        assert list(printed) == [m["name"] for m in declared]
        for metric in declared:
            assert printed[metric["name"]]["unit"] == metric["unit"]


def test_benchmark_json_names_what_the_runner_knows():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"][1:] == ["shiftbench/run.py"]
    assert {m["name"] for m in SPEC["end_to_end"]} == set(
        run.END_TO_END_UNITS)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "shiftbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = cli("--workload", "kernels", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_tracer_uninstall_restores_every_trace_point():
    import importlib

    def current():
        found = []
        for module, path, _ in TRACE_POINTS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            found.append(vars(owner).get(attr))
        return found

    before = current()
    tracer = Tracer()
    tracer.install()
    assert current() != before
    tracer.uninstall()
    assert current() == before
