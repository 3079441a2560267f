"""Smoke test of the benchmark: every workload at tiny size, about a minute.

    python3 -m pytest bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(out_dir, workload, *extra, cwd=ROOT):
    command = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
               "--seconds", "1", "--tiny", "--out-dir", str(out_dir), *extra]
    done = subprocess.run(command, capture_output=True, text=True, timeout=170, cwd=cwd)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(tmp_path, workload):
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        result = run(tmp_path, workload, "--trace", trace)
        assert result["correct"] and result["failed"] == 0
        printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_injected_wrong_result_raises_failed_ratio(tmp_path, workload):
    result = run(tmp_path, workload, "--trace", "0", "--inject-fault")
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_digest_mismatch_counts_as_failure(tmp_path):
    assert run(tmp_path, "verify-small")["failed"] == 0
    path = tmp_path / "digests.json"
    path.write_text(json.dumps({key: "0" * 64 for key in json.loads(path.read_text())}))
    assert run(tmp_path, "verify-small")["failed"] == 1


def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    command = [sys.executable, "bench/run.py", "--workload", "verify-small", "--seed", "1",
               "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_compare_refuses_runs_from_different_backends(tmp_path):
    def record(backend):
        return {"workload": "verify-small", "trace": 0, "tiny": False, "inject_fault": False,
                "env": {"rational_backend": backend},
                "metrics": {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in SPEC["end_to_end"]}}

    base, new = tmp_path / "base.jsonl", tmp_path / "new.jsonl"
    base.write_text(json.dumps(record("fractions.Fraction")) + "\n")
    new.write_text(json.dumps(record("gmpy2.mpq")) + "\n")
    compare = [sys.executable, str(BENCH / "compare.py"), "diff"]
    done = subprocess.run(compare + [str(base), str(base)], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    done = subprocess.run(compare + [str(base), str(new)], capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "refused" in done.stderr
