"""The pdrank benchmark: a single closed-loop client of the ``pdrank`` CLI.

    python3 bench/run.py --workload exact-dim --seed 1 --seconds 40 --trace 0

One process, one thread.  The client sends a fixed, seeded mix of requests
by calling ``pdrank.cli.main(argv)`` in-process with stdout captured, and it
sends the next request only after the previous one has returned, as a
researcher's script would.  A pass runs every request of the mix once;
passes repeat while another one fits in ``--seconds``.  Each pass has inputs
of its own, drawn from the seed and the pass number with the same supports,
so every pass does equal work and none repeats an earlier one.  They are
generated, with their expected answers, between passes and outside the
measured time.  Every JSON report is checked against an expected answer
computed by ``reference.py``, which does not use the layers being timed.

The host, a shared 2-vCPU machine, drifts in speed: one request sent again
and again took 0.79 to 1.14 s within ten seconds, and the median time of a
fixed loop over 20-second windows ranged from 18 to 26 ms within five
minutes.  Runs of identical code thus differed by 20 to 35% (the middle half
of ten runs, as a share of their median).  So every time the
benchmark reports is scaled to a reference speed.  Before each request, and
after the last one of a pass, the client times ``calibrate()``, a fixed piece
of pure-Python work like the program's own (tuples, dict updates and
``Fraction`` sums, about 0.8 ms).  A request's time is multiplied by
``REFERENCE_S`` over the mean of the calibrations just before and just after
it; a set-up's time likewise.  The program cannot change the calibration, so
a slower program still reads slower, while a slower host does not.  The run
note gives the unscaled figures and the calibration times next to them.

``--trace 0`` reports the end-to-end metrics: ``throughput_rps`` (requests
completed over the time they and their report checks took), ``latency_p50_ms``,
``latency_tail_ms`` (the highest of the p50..p99.9 percentiles with at least
ten samples beyond it in three passes), ``setup_s`` (median of nine set-ups: import of
``pdrank``, input generation and a warm-up request of each kind) and
``peak_rss_mb``.  Failed requests (an exit code other than 0, or an
exception) and wrong reports are counted against the requests attempted and
printed as ``fail_frac`` and ``wrong_frac``; they also set ``failed`` and
``correct`` in the result.

``--trace 1`` runs traced passes for half the time and untraced passes,
which go on with the next pass numbers, for the other half.  It reports each
layer's self time per pass, the exact work counters of the first traced pass
(pass 0, so they depend on the seed only), and the tracing overhead (one
minus the traced throughput over the untraced one).  Self times are not
scaled.  The spans are written to ``.bench_work/``.

The last line of standard output is the result as one JSON object; the lines
before it give the run note and every metric with its unit.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import reference
import workloads
from tracer import COUNTERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 9
CALIBRATION_STEPS = 600
# Seconds calibrate() takes at the reference speed: about its median on the
# 2-vCPU x86-64 host, Python 3.11, the benchmark was written on.
REFERENCE_S = 0.8e-3
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
MIN_PASSES = 3

UNITS = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def calibrate() -> float:
    """Seconds taken by a fixed piece of pure-Python work like the program's own."""
    start = time.perf_counter()
    table: dict[tuple[int, ...], int] = {}
    total = Fraction(0)
    for i in range(CALIBRATION_STEPS):
        key = tuple((i * j) % 7 for j in range(6))
        table[key] = table.get(key, 0) + i
        if i % 8 == 0:
            total += Fraction(i % 11 + 1, i % 13 + 1)
    return time.perf_counter() - start


@dataclass
class Passes:
    """Latencies and outcomes of the passes of one run phase.

    ``latencies`` and ``busy`` are scaled to the reference speed; the ``raw_``
    fields hold the same figures as measured.
    """

    latencies: list[float] = field(default_factory=list)
    raw_latencies: list[float] = field(default_factory=list)
    calibrations: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    passes: int = 0
    per_pass: int = 0
    busy: float = 0.0  # seconds spent sending requests and checking reports
    raw_busy: float = 0.0
    problems: list[str] = field(default_factory=list)

    def note(self, problem: str) -> None:
        if len(self.problems) < 5:
            self.problems.append(problem)

    def throughput_rps(self) -> float:
        return self.attempted / self.busy

    def raw_throughput_rps(self) -> float:
        return self.attempted / self.raw_busy


class Mix:
    """The requests of each pass of a run and their expected answers."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload, self.seed, self.workdir = workload, seed, workdir

    def __call__(self, pass_no: int) -> tuple[list, list[dict]]:
        requests = workloads.generate(
            self.workload, self.seed, pass_no, self.workdir / f"pass{pass_no}")
        return requests, [reference.expected(r.kind, r.data) for r in requests]


def call(main, argv: list[str]) -> tuple[float, int | None, str, str]:
    """Run one request; returns latency, exit code (None on exception), stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception:  # a crash is a failed request, the client goes on
            code = None
            traceback.print_exc()
        latency = time.perf_counter() - start
    return latency, code, out.getvalue(), err.getvalue()


def send(cli, req, expect, result: Passes) -> None:
    """Send one request, check its report and count the outcome in ``result``."""
    latency, code, out, err = call(cli.main, req.argv)
    result.attempted += 1
    result.raw_latencies.append(latency)
    if code != 0:
        result.failed += 1
        result.note(f"{' '.join(req.argv)}: exit {code}: {err.strip()[-300:]}")
        return
    try:
        problems = reference.check(req.kind, expect, json.loads(out))
    except (ValueError, KeyError, TypeError) as exc:
        problems = [f"unreadable report: {exc!r}"]
    if problems:
        result.wrong += 1
        result.note(f"{' '.join(req.argv)}: {'; '.join(problems)[:300]}")


def run_passes(cli, mix, seconds: float, first: int = 0, tracer=None, on_pass=None) -> Passes:
    """Closed loop: passes ``first``, ``first + 1``, ... while the next one fits in ``seconds``.

    ``mix(pass_no)`` gives the requests of a pass and their expectations.  A
    ``tracer`` is told the number of each request in this phase, from 0.
    Each request is timed between two calibrations and scaled by their mean.
    """
    result = Passes()
    rounds = []  # seconds per pass, its preparation included
    start = time.perf_counter()
    pass_no = first
    while True:
        prepared = time.perf_counter()
        requests, expects = mix(pass_no)
        before = calibrate()
        result.calibrations.append(before)
        for req, expect in zip(requests, expects):
            if tracer is not None:
                tracer.request = result.attempted
            begin = time.perf_counter()
            send(cli, req, expect, result)
            busy = time.perf_counter() - begin
            after = calibrate()
            result.calibrations.append(after)
            scale = REFERENCE_S / ((before + after) / 2)
            result.latencies.append(result.raw_latencies[-1] * scale)
            result.busy += busy * scale
            result.raw_busy += busy
            before = after
        end = time.perf_counter()
        result.passes += 1
        result.per_pass = len(requests)
        rounds.append(end - prepared)
        if on_pass is not None:
            on_pass(result.passes)
        if end - start + statistics.median(rounds) > seconds:
            return result
        pass_no += 1


def tail_percentile(samples: list[float], per_pass: int) -> tuple[float, float]:
    """The tail percentile and its value over ``samples``.

    It is the highest listed percentile with at least ten samples beyond it in
    a run of MIN_PASSES passes of ``per_pass`` requests, or in ``samples`` if
    these are fewer.  Tied to the mix size, not to the number of passes made,
    the percentile does not change with the speed of the machine.
    """
    ordered = sorted(samples)
    basis = min(len(ordered), MIN_PASSES * per_pass)
    best = PERCENTILES[0]
    for p in PERCENTILES:
        if basis - math.ceil(p / 100 * basis) >= 10:
            best = p
    return best, ordered[max(math.ceil(best / 100 * len(ordered)), 1) - 1]


def import_pdrank():
    """Import the package afresh (its module code runs again) and return ``pdrank.cli``."""
    for name in [m for m in sys.modules if m.split(".")[0] == "pdrank"]:
        del sys.modules[name]
    import pdrank.cli

    return pdrank.cli


def warmup_set(requests):
    """The smallest request of each subcommand; the exhaustive verification is left out."""
    chosen = {}
    for req in requests:
        if req.kind == "verify":
            continue
        data = req.data
        size = len(data.get("terms") or data.get("edges") or data.get("facets") or data["points"])
        command = req.argv[0]
        if command not in chosen or size < chosen[command][0]:
            chosen[command] = (size, req)
    return [req for _, req in chosen.values()]


def setup(workload: str, seed: int, workdir: Path):
    """Import, generate the inputs of pass 0 and warm up; returns (seconds, cli, requests)."""
    start = time.perf_counter()
    cli = import_pdrank()
    requests = workloads.generate(workload, seed, 0, workdir / "pass0")
    for req in warmup_set(requests):
        call(cli.main, req.argv)
    return time.perf_counter() - start, cli, requests


def setups(workload: str, seed: int, workdir: Path):
    """SETUPS set-ups, each timed between two calibrations.

    Returns (median scaled seconds, raw seconds of each, cli, requests).
    """
    scaled, raw = [], []
    before = calibrate()
    for _ in range(SETUPS):
        seconds, cli, requests = setup(workload, seed, workdir)
        after = calibrate()
        scaled.append(seconds * REFERENCE_S / ((before + after) / 2))
        raw.append(seconds)
        before = after
    return statistics.median(scaled), raw, cli, requests


def check_expected_file(workload: str, seed: int, expects: list[dict]) -> None:
    """Compare the expectations of pass 0 with the checked-in ones for this seed, if any."""
    path = Path(__file__).resolve().parent / "expected" / f"{workload}.json"
    checked_in = json.loads(path.read_text(encoding="utf-8"))["seeds"].get(str(seed))
    if checked_in is not None and checked_in != json.loads(json.dumps(expects)):
        raise SystemExit(f"bench: reference for {workload} seed {seed} disagrees with {path}")


def git_sha() -> str:
    """The commit of the checkout, read from .git without running git; 'unknown' if none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(phase: Passes, setup_s: float) -> tuple[dict, dict]:
    samples = phase.latencies
    tail_p, tail = tail_percentile(samples, phase.per_pass)
    _, raw_tail = tail_percentile(phase.raw_latencies, phase.per_pass)
    metrics = {
        "throughput_rps": phase.throughput_rps(),
        "latency_p50_ms": statistics.median(samples) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    note = {
        "latency_samples": len(samples),
        "latency_tail_percentile": tail_p,
        "latency_tail_samples_beyond": len(samples) - math.ceil(tail_p / 100 * len(samples)),
        "raw_throughput_rps": phase.raw_throughput_rps(),
        "raw_latency_p50_ms": statistics.median(phase.raw_latencies) * 1e3,
        "raw_latency_tail_ms": raw_tail * 1e3,
        "calibration_ms_quartiles": [q * 1e3 for q in statistics.quantiles(phase.calibrations, n=4)],
    }
    return {k: (v, UNITS[k]) for k, v in metrics.items()}, note


def per_layer(cli, mix: Mix, seconds: float, spans_path: Path):
    """Traced passes, then untraced ones; returns (metrics, phases, note)."""
    tracer = Tracer()
    first: dict[str, int] = {}

    def snapshot(done: int) -> None:
        if done == 1:
            first.update(tracer.counts)

    tracer.install()
    try:
        traced = run_passes(cli, mix, seconds / 2, tracer=tracer, on_pass=snapshot)
    finally:
        tracer.uninstall()
    plain = run_passes(cli, mix, seconds / 2, first=traced.passes)
    tracer.write(spans_path)
    metrics = {
        f"{layer}.self_s": (tracer.self_s[layer] / traced.passes, "s") for layer in tracer.names
    }
    for name in COUNTERS:
        if name != "exact.rank.full":
            metrics[name] = (first[name], "count")
    rank_calls = first["exact.sparse_int_rank.calls"]
    metrics["exact.rank.full_frac"] = (first["exact.rank.full"] / rank_calls if rank_calls else 0.0, "frac")
    metrics["bench.tracing_overhead_frac"] = (
        1 - traced.throughput_rps() / plain.throughput_rps(), "frac")
    note = {
        "untraced_passes": plain.passes,
        "traced_passes": traced.passes,
        "rank_full_frac_base_calls": rank_calls,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, [traced, plain], note


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "pdrank" / "cli.py").is_file():
        print(f"bench: no pdrank sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workdir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}"

    setup_s, setup_times, cli, requests = setups(args.workload, args.seed, workdir)

    start = time.perf_counter()
    check_expected_file(args.workload, args.seed, [reference.expected(r.kind, r.data) for r in requests])
    reference_s = time.perf_counter() - start
    mix = Mix(args.workload, args.seed, workdir)

    note = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "client": "closed loop, 1 client, 1 thread, no think time",
        "requests_per_pass": len(requests),
        "reference_s": REFERENCE_S,
        "raw_setup_s_runs": setup_times,
        "pass0_reference_s": reference_s,
    }
    if args.trace:
        spans_path = ROOT / ".bench_work" / f"spans-{args.workload}-seed{args.seed}.json"
        metrics, phases, layer_note = per_layer(cli, mix, args.seconds, spans_path)
        note.update(layer_note)
    else:
        phase = run_passes(cli, mix, args.seconds)
        metrics, e2e_note = end_to_end(phase, setup_s)
        note.update(e2e_note, passes=phase.passes, measured_s=phase.raw_busy)
        phases = [phase]

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    wrong = sum(p.wrong for p in phases)
    note["problems"] = [x for p in phases for x in p.problems][:5]
    print("run note: " + json.dumps(note, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_frac {failed / attempted:.6g} ({failed} of {attempted} requests)")
    print(f"wrong_frac {wrong / attempted:.6g} ({wrong} of {attempted} requests)")
    result = {
        "correct": failed == 0 and wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
