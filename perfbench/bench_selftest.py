"""Tests of the benchmark itself (not collected by the repository's test run).

Run from the repository root::

    python3 -m pytest perfbench/bench_selftest.py -q

Each workload is smoke-run on a tiny grid, traced and untraced; the emitted
names must equal ``BENCHMARK.json``, the result line must follow the schema,
a perturbed reference must make points fail, and no run may leave a process
behind.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402

WORKLOAD_NAMES = [entry["name"] for entry in run.manifest()["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def group_members(group: int) -> list:
    """Processes (zombies included) still in process group ``group``, read from ``/proc``."""
    members = []
    for entry in Path("/proc").iterdir():
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[2]) == group:
            members.append(int(entry.name))
    return members


def bench(*extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    """Run the benchmark in a process group of its own; it must leave no process behind."""
    command = [sys.executable, str(cwd / "perfbench" / "run.py"), "--seconds", "0.1", *extra]
    with subprocess.Popen(
        command, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        process_group=0,
    ) as child:
        stdout, stderr = child.communicate(timeout=170)
    assert group_members(child.pid) == [], "the benchmark left processes running"
    return subprocess.CompletedProcess(command, child.returncode, stdout, stderr)


def result_line(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_manifest_is_current_and_within_contract():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert manifest == run.manifest()
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in manifest[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert 2 <= len(manifest["workloads"]) <= 8
    assert all(len(entry["why"]) <= 200 and "\n" not in entry["why"] for entry in manifest["workloads"])
    assert all(UNIT.match(entry["unit"]) for key in ("end_to_end", "per_layer") for entry in manifest[key])
    assert all(0 < entry["bound"] <= 0.25 for entry in manifest["end_to_end"])
    setup = next(entry for entry in manifest["end_to_end"] if entry["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(entry["bound"] for entry in manifest["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_untraced_smoke_run(workload):
    csvs = sorted((ROOT / "benchmarks" / "results").glob("*.csv"))
    before = {path: hashlib.sha256(path.read_bytes()).hexdigest() for path in csvs}
    result = result_line(bench("--workload", workload, "--tiny", "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {entry["name"]: entry["unit"] for entry in run.manifest()["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert before == {path: hashlib.sha256(path.read_bytes()).hexdigest() for path in csvs}
    assert not (ROOT / ".perfbench_tmp").exists()


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_smoke_run(workload):
    result = result_line(bench("--workload", workload, "--tiny", "--trace", "1"))
    assert result["correct"] is True
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert list(metrics) == [entry["name"] for entry in run.manifest()["per_layer"]]
    layers = sum(metrics[f"{layer}.self_s"] for layer in ("attacks", "analysis", "mdp", "core"))
    assert math.isclose(layers + metrics["other_s"], metrics["traced_wall_s"], rel_tol=1e-9)
    assert metrics["other_s"] >= -1e-9
    assert metrics["core.worker_builds"] == 0
    if workload == "point-d2f2":
        assert metrics["mdp.self_s"] > 0.5 * metrics["traced_wall_s"]
        assert 0 < metrics["mdp.lu_share"] < 1
    else:
        assert metrics["core.plan_s"] > 0 and metrics["attacks.baseline_s"] > 0


def test_perturbed_reference_fails_points(tmp_path):
    reference = json.loads(run.REFERENCE.read_text())
    values = reference["point-d2f2"]["0.5,0.3"]
    values[0] = math.nextafter(values[0], 0.0)
    perturbed = tmp_path / "reference.json"
    perturbed.write_text(json.dumps(reference))
    result = result_line(
        bench("--workload", "point-d2f2", "--tiny", "--reference", str(perturbed))
    )
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = bench("--workload", "point-d2f2", cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def test_spans_restore_every_attribute():
    import repro
    import scipy.sparse.linalg
    import spans

    originals = (repro.formal_analysis, repro.run_sweep, scipy.sparse.linalg.spsolve)
    recorder = spans.SpanRecorder(ROOT)
    recorder.install()
    try:
        assert len(spans.installed_wrappers()) >= len(spans.TARGETS)
        assert repro.formal_analysis is not originals[0]
    finally:
        recorder.restore()
    assert spans.installed_wrappers() == []
    assert (repro.formal_analysis, repro.run_sweep, scipy.sparse.linalg.spsolve) == originals


@pytest.mark.parametrize(
    "parent, change, expected",
    [
        ([1.0 + 0.001 * i for i in range(10)], [0.8 + 0.001 * i for i in range(10)], "improved"),
        ([1.0 + 0.001 * i for i in range(10)], [1.0 + 0.001 * i for i in range(10)], "unchanged"),
        ([1.0 + 0.001 * i for i in range(10)], [1.3 + 0.001 * i for i in range(10)], "regressed"),
        ([1.0, 1.5] * 5, [0.9, 1.4] * 5, "unresolved"),
        ([1.0 + 0.001 * i for i in range(5)], [0.8 + 0.001 * i for i in range(5)], "unresolved"),
    ],
)
def test_compare_verdicts(parent, change, expected):
    assert run.verdict(parent, change, "lower", 0.1) == expected
