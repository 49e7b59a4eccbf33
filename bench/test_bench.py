"""Tests of the benchmark itself: python -m pytest -q bench"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}

# spans each workload must reach, and spans it must never reach
REACHES = {
    "exact": (
        ["poly.ctor", "forms.d", "operators.p_closed", "operators.decompose", "poincare.integrate"],
        ["ratfun.ctor", "parser.parse", "printer.doc", "cartier.cartier"],
    ),
    "cohomology": (
        ["forms.wedge", "operators.ri", "operators.ct", "cartier.cartier", "cartier.gamma0", "poly.diff"],
        ["poincare.integrate", "ratfun.ctor", "parser.parse"],
    ),
    "rational": (
        ["parser.parse", "ratfun.ctor", "ratfun.arith", "ratfun.clear", "printer.doc", "poincare.integrate"],
        ["cartier.cartier", "cli.run"],
    ),
    "audit": (
        ["cli.run", "audit.run", "sampling.draw", "poincare.oracle", "scalar.prime", "forms.ctor"],
        ["parser.parse"],
    ),
}


@pytest.fixture(scope="module")
def fp():
    return run.import_fpforms()


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        capture_output=True,
        text=True,
        cwd=str(cwd),
        timeout=170,
    )


def test_smoke_run_prints_every_end_to_end_metric():
    proc = bench("--workload", "all", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(results) == set(workloads.WORKLOADS)
    for result in results.values():
        assert result["correct"] is True
        assert result["attempted"] >= run.MIN_POOL_ITEMS
        assert set(result["metrics"]) == END_TO_END
        assert all(m["value"] > 0 for m in result["metrics"].values())
    for name in ("ok_per_s", "item_ms_p50", "item_ms_p90", "fail_ratio", "setup_s", "peak_rss_mb"):
        assert proc.stdout.count(name) >= len(workloads.WORKLOADS)


def test_traced_run_reports_every_per_layer_metric():
    proc = bench("--workload", "rational", "--seed", "1", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result["metrics"]) == PER_LAYER
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 1.0
    header = json.loads((run.TRACES / "rational.json").read_text())
    assert header["spans"] > 0


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "traces"))
    proc = bench("--workload", "exact", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    first = json.dumps(workloads.generate_round(workload, 7, 3))
    assert json.dumps(workloads.generate_round(workload, 7, 3)) == first
    assert json.dumps(workloads.generate_round(workload, 8, 3)) != first
    assert json.dumps(workloads.generate_round(workload, 7, 4)) != first
    assert len(workloads.generate_round(workload, 7, 3)) == len(workloads.cells(workload))


def test_rational_text_is_generated_without_fpforms():
    code = (
        "import sys; import workloads; workloads.generate_round('rational', 1, 0); "
        "print('fpforms' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=str(ROOT / "bench"), check=True
    )
    assert out.stdout.strip() == "False"


def _exact_loop(fp):
    return run.Loop(fp, "exact", 1, workloads.generate_round("exact", 1, 0))


def test_corrupted_potential_is_a_mismatch_not_a_failure(fp, monkeypatch):
    real = fp.integrate

    def corrupted(omega):
        # add z_j dz_I with j outside I: d of it is nonzero
        theta = real(omega)
        index = tuple(range(1, theta.r + 1))
        bump = fp.MultiPoly.variable(theta.p, theta.n, theta.r + 1)
        return theta + fp.DiffForm(theta.p, theta.n, theta.r, {index: bump})

    monkeypatch.setattr(fp, "integrate", corrupted)
    loop = _exact_loop(fp)
    with pytest.raises(workloads.Mismatch):
        loop.run_item((0, 0), loop.first_round[0])
    assert loop.failures == {}


def test_typed_error_is_a_failure_with_infinite_latency(fp, monkeypatch):
    def overflow(omega):
        raise fp.DegreeOverflow("exponent over the cap")

    monkeypatch.setattr(fp, "integrate", overflow)
    loop = _exact_loop(fp)
    loop.run_item((0, 0), loop.first_round[0])
    assert loop.failures == {"DegreeOverflow": 1}
    assert loop.latencies == [math.inf]


def test_mismatch_exits_nonzero_without_a_result(tmp_path):
    # a worker whose exactness check fails stops with MISMATCH_EXIT
    script = (
        "import sys, run, workloads\n"
        "def wrong(fp, item):\n"
        "    raise workloads.Mismatch('injected')\n"
        "workloads.RUNNERS['exact'] = wrong\n"
        "sys.exit(run.main(['--role', 'worker', '--workload', 'exact', '--seed', '1',"
        " '--seconds', '1']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=str(ROOT / "bench")
    )
    assert proc.returncode == run.MISMATCH_EXIT
    assert "MISMATCH" in proc.stderr
    assert proc.stdout.strip() == ""


def test_install_patches_aliases_and_reimported_names(fp):
    tracer = spans.Tracer()
    tracer.install(fp)
    try:
        assert fp.MultiPoly.__radd__ is fp.MultiPoly.__add__
        assert hasattr(fp.MultiPoly.__add__, "__wrapped__")
        assert hasattr(fp.MultiPoly.__rmul__, "__wrapped__")
        assert hasattr(sys.modules["fpforms.poincare"].p_closed_failure, "__wrapped__")
        assert hasattr(sys.modules["fpforms.cartier"].irrational_part, "__wrapped__")
        assert fp.integrate is sys.modules["fpforms.poincare"].integrate
    finally:
        tracer.uninstall()
    assert not hasattr(fp.MultiPoly.__add__, "__wrapped__")
    assert not hasattr(sys.modules["fpforms.poincare"].p_closed_failure, "__wrapped__")
    assert not hasattr(fp.integrate, "__wrapped__")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_spans_reach_their_layers_and_account_for_the_time(fp, workload):
    loop = run.Loop(fp, workload, 1, workloads.generate_round(workload, 1, 0))
    tracer = spans.Tracer()
    tracer.install(fp)
    try:
        loop.run_rounds(0, count=1, tracer=tracer)
    finally:
        tracer.uninstall()
    calls = dict(zip(spans.SPAN_NAMES, tracer.calls))
    reached, unreached = REACHES[workload]
    assert all(calls[name] > 0 for name in reached), calls
    assert all(calls[name] == 0 for name in unreached), calls
    # self times never exceed the timed wall time; the rest is the
    # benchmark's own code and the counters' inspection
    assert 0 < sum(tracer.self_s) + tracer.inspect_s <= loop.timed_s
    assert len(tracer.rec_start) == sum(tracer.calls)
    assert all(e >= s for s, e in zip(tracer.rec_start, tracer.rec_end))


def test_a_changed_report_on_a_repeat_is_a_mismatch(fp):
    loop = run.Loop(fp, "audit", 1, workloads.generate_round("audit", 1, 0))
    loop.check_repeat((0, 0), '{"regressions": 0}')
    loop.check_repeat((0, 0), '{"regressions": 0}')
    with pytest.raises(workloads.Mismatch):
        loop.check_repeat((0, 0), '{"regressions": 0} ')


def test_timings_are_scaled_by_the_calibration(fp):
    loop = run.Loop(fp, "exact", 1, workloads.generate_round("exact", 1, 0))
    loop.calibrate([run.CALIBRATION_REF_MS] * 3)  # a round at reference speed
    for k in range(1, 51):
        loop.record_time((0, k), 0.001 * k, None)
    loop.calibrate([run.CALIBRATION_REF_MS / 4] * 3)  # a round at four times the speed
    for k in range(51, 101):
        loop.record_time((0, k), 0.001 * k, None)
        loop.record_time((0, k), 0.001 * k, None)  # a repeat adds time, not weight
    scale = 4**run.CALIBRATION_POWER
    ref_s = sum(0.001 * k for k in range(1, 51)) + 2 * scale * sum(0.001 * k for k in range(51, 101))
    summary = loop.summary()
    assert summary["p50_ms"] == pytest.approx(50.0)
    assert summary["p90_ms"] == pytest.approx(90.0 * scale)
    assert summary["ok_per_s"] == pytest.approx(150 / ref_s)
    assert summary["attempted"] == 100


def test_a_changed_outcome_on_a_repeat_is_a_mismatch(fp):
    loop = _exact_loop(fp)
    loop.record_outcome((0, 0), "DegreeOverflow")
    loop.record_outcome((0, 0), "DegreeOverflow")
    loop.record_outcome((0, 1), None)
    assert loop.failures == {"DegreeOverflow": 1}  # distinct items, not executions
    with pytest.raises(workloads.Mismatch):
        loop.record_outcome((0, 0), None)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_rounds_cycle_through_a_pool_fixed_by_the_seed(fp, workload):
    loop = run.Loop(fp, workload, 1, workloads.generate_round(workload, 1, 0))
    last = workloads.POOL_ROUNDS[workload] - 1
    assert loop.round_items(last) == workloads.generate_round(workload, 1, last)
    assert loop.round_items(last + 1) is loop.first_round
    assert loop.round_items(last + 2) == loop.round_items(1)
    assert loop.pool_items() >= run.MIN_POOL_ITEMS


def test_rational_rounds_alternate_their_two_denominator_items():
    def two_denominators(k):
        return sum(item["text"].count("/") == 2 for item in workloads.generate_round("rational", 7, k))

    pairs = {two_denominators(k) + two_denominators(k + 1) for k in range(6)}
    assert len(pairs) == 1 and pairs.pop() > 0
