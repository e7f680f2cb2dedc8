"""Self-test of the benchmark at tiny sizes.

Run from the root of the repository (the ``spark`` cases start a local
JVM and take about half a minute each)::

    python -m pytest perfbench/test_perfbench.py -q

Each workload runs on the small grids of ``repro.harness.grids`` in both
modes. The test asserts that the result line names every metric of
``BENCHMARK.json`` with its unit, that no window differs from its
reference, that the untraced run never installs a wrapper (so it runs
the original functions), and that the traced run restores them.
"""
from __future__ import annotations

import json
import numbers
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _check(out: dict, declared: list[dict]) -> None:
    final = out["final"]
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True
    assert final["failed"] == 0 and final["attempted"] >= 1
    assert out["details"]["error_rate"] == 0
    got = final["metrics"]
    assert set(got) == {m["name"] for m in declared}
    for m in declared:
        assert got[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(got[m["name"]]["value"], numbers.Real), m["name"]
    json.dumps(final, allow_nan=False)


def _unwrapped() -> dict:
    fns = tracer.originals()
    assert not any(hasattr(f, "__wrapped__") for f in fns.values())
    return fns


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_uses_original_functions(workload, monkeypatch):
    before = _unwrapped()

    def refuse(self):
        raise AssertionError("the untraced run installed wrappers")

    monkeypatch.setattr(tracer.Tracer, "install", refuse)
    out = run.run(workload, seed=3, seconds=1, trace=False, tiny=True)
    _check(out, SPEC["end_to_end"])
    assert _unwrapped() == before


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_layers_and_restores(workload):
    before = _unwrapped()
    out = run.run(workload, seed=3, seconds=1, trace=True, tiny=True)
    _check(out, SPEC["per_layer"])
    assert _unwrapped() == before
    assert out["final"]["metrics"]["sap.topk_calls"]["value"] > 0


def test_refuses_without_program_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = SPEC["command"] + ["--workload", WORKLOADS[0], "--seed", "1",
                             "--seconds", "1", "--trace", "0"]
    p = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
