"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _one_per_kind(workdir: Path, workload: str, seed: int):
    """The request with the smallest input of each kind, and its expectation."""
    chosen = {}
    for req in workloads.generate(workload, seed, 0, workdir):
        if req.kind not in chosen or len(repr(req.data)) < len(repr(chosen[req.kind].data)):
            chosen[req.kind] = req
    requests = list(chosen.values())
    return requests, [reference.expected(r.kind, r.data) for r in requests]


def _perturb(expect: dict) -> dict:
    """Change the first scalar answer of an expectation."""
    for key, value in expect.items():
        if isinstance(value, bool) or value is None:
            continue
        if isinstance(value, int):
            return {**expect, key: value + 1}
        if isinstance(value, str):
            return {**expect, key: value + "1"}
    raise AssertionError(f"nothing to perturb in {expect}")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(tmp_path, workload):
    def inputs(seed, pass_no, sub):
        workdir = tmp_path / sub
        requests = workloads.generate(workload, seed, pass_no, workdir)
        argvs = [[a.replace(str(workdir), "") for a in r.argv] for r in requests]
        return argvs, [p.read_text() for p in sorted(workdir.iterdir())]

    assert inputs(7, 0, "a") == inputs(7, 0, "b")
    assert inputs(7, 0, "a")[1] != inputs(8, 0, "c")[1]
    assert inputs(7, 0, "a")[1] != inputs(7, 1, "d")[1]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_perturbed_expectation_is_reported_wrong(tmp_path, workload):
    cli = run.import_pdrank()
    requests, expects = _one_per_kind(tmp_path, workload, 3)
    clean = run.run_passes(cli, lambda _: (requests, expects), 0)
    assert (clean.attempted, clean.failed, clean.wrong) == (len(requests), 0, 0)
    for i in range(len(requests)):
        perturbed = list(expects)
        perturbed[i] = _perturb(expects[i])
        phase = run.run_passes(cli, lambda _: (requests, perturbed), 0)
        assert (phase.failed, phase.wrong) == (0, 1), requests[i].argv


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_counters(tmp_path, workload):
    cli = run.import_pdrank()
    original = cli.exact.build_matrix
    requests, expects = _one_per_kind(tmp_path, workload, 5)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            run.run_passes(cli, lambda _: (requests, expects), 0, tracer=tracer)
        finally:
            tracer.uninstall()
        counts.append(tracer.counts)
        assert {span[4] for span in tracer.spans} == set(range(len(requests)))
    assert counts[0] == counts[1]
    assert counts[0]["exact.build_matrix.calls"] > 0
    assert cli.exact.build_matrix is original


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(1, 301)]
    assert run.tail_percentile(samples, 100) == (95, 285.0)
    assert run.tail_percentile(samples, 40) == (90, 270.0)
    assert run.tail_percentile(samples[:30], 40) == (50, 15.0)


def test_times_are_scaled_by_the_calibrations(tmp_path, monkeypatch):
    cli = run.import_pdrank()
    requests, expects = _one_per_kind(tmp_path, "exact-dim", 3)
    monkeypatch.setattr(run, "calibrate", lambda: 2 * run.REFERENCE_S)
    phase = run.run_passes(cli, lambda _: (requests, expects), 0)
    assert len(phase.calibrations) == len(requests) + 1
    assert phase.latencies == pytest.approx([t / 2 for t in phase.raw_latencies])
    assert phase.throughput_rps() == pytest.approx(2 * phase.raw_throughput_rps())
