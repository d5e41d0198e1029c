"""Self-test of the benchmark: every metric is emitted, and the check bites.

    python3 -m pytest -q perfbench

Each case but the last runs ``run.py`` from the command line, in a
subprocess, at the minimal ``--smoke`` size.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc, result = bench(
        "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", trace,
        "--smoke",
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if trace == "1":
        m = {name: v["value"] for name, v in result["metrics"].items()}
        self_times = [v for name, v in m.items() if name.endswith("self_s")]
        assert sum(self_times) == pytest.approx(m["traced_wall_s"])
        assert m["other.self_s"] >= 0.0


def _checkout(tmp_path: Path) -> Path:
    """A copy of the benchmark next to this repo's source tree."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def _corrupt(tmp_path: Path, workload: str, scale: float) -> Path:
    """A checkout whose recorded smoke QoS has its goodput scaled."""
    checkout = _checkout(tmp_path)
    (checkout / "src").symlink_to(ROOT / "src", target_is_directory=True)
    path = checkout / "perfbench" / "expected.json"
    doc = json.loads(path.read_text())
    qos = doc[workload]["smoke"]["seeds"]["0"]["FrameFeedback"]
    qos["successful"] = int(round(qos["successful"] * scale))
    path.write_text(json.dumps(doc))
    return checkout


@pytest.mark.parametrize(
    "workload, scale",
    [
        # exact kernel: any difference is wrong
        ("fig3", 1.01),
        # hybrid: the exact-kernel reference moved beyond the tolerance
        ("staircase-hybrid", 1.10),
    ],
)
def test_wrong_expected_qos_fails_the_run(tmp_path, workload, scale):
    proc, result = bench(
        "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "0",
        "--smoke", cwd=_corrupt(tmp_path, workload, scale),
    )
    assert proc.returncode == 1
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "WRONG OUTPUT" in proc.stdout


def test_hybrid_within_tolerance_passes(tmp_path):
    # a 1 % shift of the reference stays inside the recorded 3 % margin
    proc, result = bench(
        "--workload", "staircase-hybrid", "--seed", "0", "--seconds", "1",
        "--trace", "0", "--smoke", cwd=_corrupt(tmp_path, "staircase-hybrid", 1.01),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] is True


def test_without_source_tree_exits_nonzero_without_result(tmp_path):
    proc, result = bench(
        "--workload", "fig3", "--seed", "0", "--seconds", "1", "--trace", "0",
        cwd=_checkout(tmp_path),
    )
    assert proc.returncode != 0
    assert result is None


def test_histogram_quantiles_match_exact_percentiles():
    # merged latency histograms give the pooled percentiles to within a
    # 1 % bucket, interpolated rather than snapped to a bucket's middle
    import numpy as np

    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    try:
        from workloads import histogram_quantiles, latency_histogram

        halves = [latency_histogram(), latency_histogram()]
    finally:
        del sys.path[:2]
    values = np.random.default_rng(1).lognormal(np.log(3e-4), 0.3, size=20_000)
    for i, value in enumerate(values):
        halves[i % 2].record(float(value))
    got = histogram_quantiles(halves, [0.50, 0.95, 0.99])
    assert got == pytest.approx(np.percentile(values, [50, 95, 99]), rel=0.005)
