"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload runs once untraced and once traced, one fresh interpreter each,
with a one-second window, so every test sees exactly one pass.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

# how far the traced pass time may be from the sum of all span self times;
# the gap is the loop and clock reads between items
SELF_TIME_TOLERANCE = 0.05


def _bench(workload: str, trace: int, cwd: Path = run.ROOT):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    info = dict(line.split(" ", 1) for line in lines[:-1]
                if line.startswith(("inputs ", "outputs ")))
    return info, json.loads(lines[-1])


@pytest.fixture(scope="module", params=list(workloads.WORKLOADS))
def runs(request):
    return request.param, _bench(request.param, 0), _bench(request.param, 1)


def test_untraced_run_reports_every_end_to_end_metric(runs):
    _, (_, plain), _ = runs
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    assert set(plain["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in plain["metrics"].values())


def test_traced_outputs_match_untraced_byte_for_byte(runs):
    _, (plain_info, plain), (traced_info, traced) = runs
    assert traced["correct"]
    assert plain_info == traced_info
    assert set(traced["metrics"]) == {name for name, _, _ in run.spans.PER_LAYER}


def test_self_times_sum_to_traced_pass_time(runs):
    _, _, (_, traced) = runs
    m = traced["metrics"]
    pass_s = m["trace.pass_s"]["value"]
    self_sum = m["trace.self_sum_s"]["value"]
    assert abs(self_sum - pass_s) <= SELF_TIME_TOLERANCE * pass_s


def test_seed_changes_seeded_inputs_but_not_corpus(tmp_path):
    gk = run.import_golodkit()
    for name, build in workloads.WORKLOADS.items():
        first = build(gk, 1, tmp_path)
        again = build(gk, 1, tmp_path)
        other = build(gk, 2, tmp_path)
        assert first.input_digests() == again.input_digests(), name
        assert first.corpus_inputs == other.corpus_inputs, name
        assert first.seeded_inputs != other.seeded_inputs, name
        assert [it.name for it in first.items] == [it.name for it in other.items], name


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "predicate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
