"""Smoke test of the benchmark harness at its smallest settings.

    python3 -m pytest -q perfbench/test_harness.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads as W  # noqa: E402
from tracer import Tracer  # noqa: E402


def _corpus_pass(state, gate):
    for segment in W.corpus_segments(state):
        segment(gate)


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run(["--workload", "corpus-certify", "--seed", "3",
                 "--seconds", "1", "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float), name
        if section == "end_to_end":
            assert m["value"] > 0, name


def test_gate_trips_on_an_injected_wrong_verdict(monkeypatch):
    state = W.corpus_setup(0)[:1]            # ell1-plain only
    gate = W.Gate()
    _corpus_pass(state, gate)
    assert gate.attempted > 0 and gate.failed == 0

    # the same outputs against an expectation that J_squared fails
    monkeypatch.setattr(W, "EXPECTED_FAIL",
                        W.EXPECTED_FAIL | {("ell1-plain", "J_squared")})
    gate = W.Gate()
    _corpus_pass(state, gate)
    assert gate.failed == 1 and gate.fail_frac > 0
    assert gate.mismatches[0].startswith("ell1-plain/J_squared")

    gate = W.Gate()
    gate.exit_code("seeded-defect", 0)       # the defect must exit 1
    gate.raised("corpus-certify", RuntimeError("build failed"))
    assert gate.failed == gate.attempted == 2


def test_tracer_restores_the_program_and_rolls_up_self_time():
    from cprojlab import jets, kahler
    originals = (jets.jet_einsum, kahler.jet_einsum, jets.Jet.__mul__)
    state = W.corpus_setup(0)[:1]
    tracer = Tracer()
    tracer.install()
    try:
        assert kahler.jet_einsum is jets.jet_einsum is not originals[0]
        _corpus_pass(state, W.Gate())
    finally:
        tracer.uninstall()
    assert (jets.jet_einsum, kahler.jet_einsum, jets.Jet.__mul__) \
        == originals
    roots = sum(e - s for p, s, e in zip(tracer.parent, tracer.start,
                                         tracer.end) if p < 0)
    roll = tracer.rollup()
    assert roll["calls"]["geometry.christoffel"] > 0
    # one outermost eval; the quotient-pair eval nested in it adds nothing
    assert roll["calls"]["builders.eval"] == 1
    assert roll["counters"]["builders.eval_points"] == len(state[0][3])
    assert roll["distinct"]["geometry.christoffel"] >= 1
    # self times are non-negative and add up to the top-level spans
    assert min(roll["self"].values()) >= 0
    assert sum(roll["self"].values()) == pytest.approx(roots, rel=1e-9)
    assert len(tracer.name) == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "corpus-certify", "--seed", "0",
                 "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
