"""The benchmark (perfbench/) against the package it runs: a renamed or
re-signed function that the tracer or a workload looks up breaks these
tests, not only the benchmark runs."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest
from test_config import TINY

from shiftdetect.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _package_bindings() -> dict:
    return {(name, key): value for name, module in list(sys.modules.items())
            if module is not None and (name == "shiftdetect" or name.startswith("shiftdetect."))
            for key, value in vars(module).items()}


def test_tracer_counts_a_bench_command_and_restores_every_patched_name(tmp_path, capsys):
    spans = _load_spans()
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(dict(TINY, methods=["nored", ["nored", "multivariate"]])))
    before = _package_bindings()
    with spans.Tracer() as tracer:
        code = main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                     "--threads", "1"])
        patched = {k for k, v in _package_bindings().items() if before.get(k) is not v}
    assert code == 0
    assert tracer.counts["stattest.mmd.calls"] > 0
    assert tracer.counts["stattest.ks.columns"] > 0
    assert ("shiftdetect.stattest", "mmd_permutation_test") in patched
    after = _package_bindings()
    assert all(after[k] is v for k, v in before.items())


@pytest.mark.parametrize("workload", ["grid-stats", "grid-trained", "monitor-stream"])
def test_each_workload_runs_short_and_correct(workload):
    run = subprocess.run([sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
                          "--seed", "0", "--seconds", "1", "--short"],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, run.stdout
