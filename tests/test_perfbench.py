"""The benchmark's tracer (perfbench/spans.py) against the package it
instruments: a renamed or re-signed traced function breaks this test, not
only the traced benchmark runs."""

import importlib.util
import json
import sys
from pathlib import Path

from test_config import TINY

from shiftdetect.cli import main

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
