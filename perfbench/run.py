#!/usr/bin/env python3
"""The cantorv benchmark: one closed-loop client, no threads.

Usage (from the repository root):

    python3 perfbench/run.py --workload words|topology|symmetry \
        --seed N --seconds S --trace 0|1

The engine is imported from ``src/``; metric names and units come from
``BENCHMARK.json``.  Set-up builds the workload's inputs from the seed, in
this process and again in a few fresh child processes, to time it cold
and to check that the same seed gives the same inputs.  The inputs come in
cycles, each a fixed mix of requests in seeded order.  Then:

* ``--trace 0`` sends requests one after another in whole cycles, stopping
  at the cycle boundary nearest to ``--seconds`` (after at least one cycle),
  checks every output, and reports the end-to-end metrics;
* ``--trace 1`` runs a fixed number of requests twice, first plain and then
  with span wrappers installed around the library's cross-module calls,
  checks that both passes give the same per-request outputs, and reports
  the per-layer metrics plus the tracing overhead.  The spans are written
  to ``.bench_out/spans-<workload>.{bin,json}``.

End-to-end metrics (untraced run).  Every time is scaled to the reference
speed of ``speed.py``, from speed samples taken between requests (a request
by the two around it, the set-ups by all of them), so that the drift of a
shared host counts less; the times as measured are printed on a report
line.
  setup_s          median over the set-ups of the time from process start
                   (after the interpreter is up) until the inputs are built
  throughput_rps   successful requests per second of request time (the
                   client's own output checks and speed samples are not
                   counted)
  latency_p50_ms   median request time, over every attempted request
  latency_tail_ms  a fixed percentile of the request times per workload,
                   chosen so that a run has at least ten requests beyond
                   it; the report line names the percentile, the sample
                   count and how many requests lie beyond it
  peak_rss_mb      peak resident memory of the benchmark process
  failed_ratio     failed over attempted requests, with counts per exception
                   type; printed on a report line, and the JSON carries
                   ``attempted`` and ``failed``

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A request fails when it raises or when its check rejects
the output; both count in ``failed``, and ``correct`` is false only when
an output was wrong or a self-check did not hold.
"""

import time

PROCESS_START = time.perf_counter()

import argparse
import gc
import json
import math
import pathlib
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "cantorv").is_dir():
    sys.exit(f"no engine sources under {ROOT / 'src'}: run from a checkout of the repository")
sys.path.insert(0, str(ROOT / "src"))

import cantorv.elements as E
import cantorv.algebra as A
import cantorv.terms as T

import oracle
import speed
from metrics import MOVES
from workloads import WORKLOADS, CheckFailed, Session, SPEC_SOURCES

GOLDEN = HERE / "golden_topology.json"
PINNED = HERE / "input_digests.json"
OUT_DIR = ROOT / ".bench_out"


@dataclass
class Phase:
    latencies: list = field(default_factory=list)
    scaled: list = field(default_factory=list)    # at the reference speed
    samples: list = field(default_factory=list)   # speed samples, in seconds
    outputs: list = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)
    wrong: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    @property
    def scaled_busy(self) -> float:
        return sum(self.scaled)


def closed_loop(wl, requests, cycle, meter, *, seconds=None, count=None, tracer=None) -> Phase:
    """Send the next request only after the previous one has completed.
    Runs ``count`` requests, or else whole cycles of ``cycle`` requests
    until the cycle boundary nearest to ``seconds``, so that every run
    times the same mix whatever the speed of the engine.  A speed sample
    is taken before the first request and after each one, and each
    request's time is also kept scaled to the reference speed.  The
    garbage a request leaves is collected before the next one, so that
    the order of the requests moves the peak memory less."""
    phase = Phase()
    session = Session()
    clock = time.perf_counter
    samples = [meter.sample()]
    start = clock()
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif i and i % cycle == 0:
            elapsed = clock() - start
            if elapsed + elapsed / (i // cycle) / 2 >= seconds:
                break
        req = requests[i % len(requests)]
        if tracer is not None:
            tracer.begin_request(i)
        t0 = clock()
        try:
            result = wl.execute(req, session)
        except Exception as exc:  # a failed request is data, not a crash
            result, raised = None, exc
        else:
            raised = None
        t1 = clock()
        if tracer is not None:
            tracer.end_request()
        samples.append(meter.sample())
        gc.collect()
        phase.latencies.append(t1 - t0)
        if raised is not None:
            phase.failures[type(raised).__name__] += 1
            phase.outputs.append(f"raised {type(raised).__name__}: {raised}")
        else:
            try:
                phase.outputs.append(wl.check(req, result))
            except CheckFailed as exc:
                phase.failures["CheckFailed"] += 1
                phase.wrong.append(f"request {i}: {exc}")
                phase.outputs.append(f"check failed: {exc}")
        i += 1
    phase.scaled = speed.scaled_times(phase.latencies, samples)
    phase.samples = samples
    return phase


def percentile(sorted_values, p: float) -> tuple[float, int]:
    """The nearest-rank ``p``-th percentile and how many samples lie beyond it."""
    n = len(sorted_values)
    k = math.ceil(p * n / 100) - 1
    return sorted_values[k], n - 1 - k


def oracle_self_check() -> str | None:
    """The oracle must accept two diagrams of one element and reject the
    same diagram with two leaf images swapped."""
    spec = A.parse_spec(SPEC_SOURCES["2v"])
    rng = random.Random(7)
    g = next(
        x for x in (E.random_element(spec, 8, s) for s in range(100)) if len(x.domain) >= 3
    )
    perm = list(g.perm)
    perm[0], perm[1] = perm[1], perm[0]
    good = oracle.Map(g)
    same = oracle.Map(E.expand_diagram(g, T.max_elementary(g.domain)))
    bad = oracle.Map(E.Element(spec, g.domain, g.range, perm))
    pts = oracle.probe_points([good, same], spec.roots, spec.num_blocks, rng)
    if any(same(p) != good(p) for p in pts):
        return "oracle told two diagrams of one element apart"
    if all(bad(p) == good(p) for p in pts):
        return "oracle accepted a diagram with two leaf images swapped"
    return None


def cold_setup(workload: str, seed: int) -> dict:
    """One set-up in a fresh process: its time from process start and its digests."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs, print their set-up time and digests, and stop")
    args = ap.parse_args()
    if args.workload == "topology":
        wl = WORKLOADS["topology"](golden=json.loads(GOLDEN.read_text()))
    else:
        wl = WORKLOADS[args.workload]()
    inputs = wl.setup(args.seed)
    mine = {"setup_s": time.perf_counter() - PROCESS_START,
            "digest": inputs.digest, "fixed": inputs.fixed}
    if args.setup_only:
        print(json.dumps(mine))
        return 0
    with speed.Speedometer() as meter:
        return measure(args, wl, inputs, mine, meter)


def measure(args, wl, inputs, mine: dict, meter) -> int:
    """Everything after this process's set-up, with the speed helper running."""
    catalog = json.loads((ROOT / "BENCHMARK.json").read_text())
    setups = [mine] + [cold_setup(args.workload, args.seed) for _ in range(wl.SETUP_CHILDREN)]

    problems = []
    if len({s["digest"] for s in setups}) != 1:
        problems.append(f"same seed gave different input digests: {[s['digest'] for s in setups]}")
    pinned = json.loads(PINNED.read_text())[args.workload]
    if inputs.fixed != pinned:
        problems.append(f"seed-independent inputs changed: digest {inputs.fixed}, pinned {pinned}")
    bad = oracle_self_check()
    if bad:
        problems.append(bad)
    setup_times = [s["setup_s"] for s in setups]

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} input_digest={inputs.digest[:16]} "
          f"cycle={inputs.cycle} requests")
    print(f"  set-up: median of {[round(t, 3) for t in setup_times]} s as timed, "
          f"from process start")

    if args.trace == 0:
        phase = closed_loop(wl, inputs.requests, inputs.cycle, meter, seconds=args.seconds)
        metrics = end_to_end(phase, statistics.median(setup_times), inputs.cycle,
                             wl.TAIL_PERCENTILE)
        wanted = catalog["end_to_end"]
    else:
        phase, metrics = traced(wl, inputs, meter, args.workload, problems)
        wanted = catalog["per_layer"]
    problems.extend(phase.wrong[:5])

    print(f"  failed_ratio {phase.failed / max(1, phase.attempted):.6g} ratio "
          f"({phase.failed} of {phase.attempted}) by type {dict(phase.failures)}")
    for m in wanted:
        moves = f"  (moves {MOVES[m['name']]})" if args.trace else ""
        print(f"  {m['name']} {metrics[m['name']]:.6g} {m['unit']}{moves}")
    for p in problems:
        print(f"  PROBLEM: {p}")
    result = {
        "correct": not problems,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


def end_to_end(phase: Phase, setup_s: float, cycle: int, tail_pct: float) -> dict:
    """The timings at the reference speed; the raw ones go on a report line.
    The set-ups ran before the speed samples, so ``setup_s`` is scaled by
    the median of all of them: the run's speed, not the speed of a moment."""
    ok = phase.attempted - phase.failed
    raw = sorted(phase.latencies)
    lat = sorted(phase.scaled)
    tail_s, beyond = percentile(lat, tail_pct)
    print(f"  latency_tail_ms is p{tail_pct:g} of {len(lat)} requests "
          f"({phase.attempted // cycle} cycles), {beyond} beyond it; "
          f"{ok} succeeded in {phase.busy:.2f} s of request time")
    print(f"  as timed, before scaling to the reference speed "
          f"(x{phase.scaled_busy / phase.busy:.3f} overall): "
          f"throughput_rps {ok / phase.busy:.6g}, "
          f"latency_p50_ms {1000 * statistics.median(raw):.6g}, "
          f"latency_tail_ms {1000 * percentile(raw, tail_pct)[0]:.6g}, setup_s {setup_s:.6g}")
    return {
        "setup_s": setup_s * speed.scale_of(phase.samples),
        "throughput_rps": ok / phase.scaled_busy,
        "latency_p50_ms": 1000 * statistics.median(lat),
        "latency_tail_ms": 1000 * tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced(wl, inputs, meter, workload: str, problems: list):
    from tracing import Tracer

    count = inputs.traced
    plain = closed_loop(wl, inputs.requests, inputs.cycle, meter, count=count)
    tracer = Tracer()
    tracer.install()
    try:
        phase = closed_loop(wl, inputs.requests, inputs.cycle, meter, count=count,
                            tracer=tracer)
    finally:
        tracer.uninstall()
    diffs = [i for i, (a, b) in enumerate(zip(plain.outputs, phase.outputs)) if a != b]
    if diffs:
        problems.append(f"traced and untraced outputs differ at requests {diffs[:10]}")
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{workload}")
    raw = tracer.metrics()
    raw["trace.overhead_ratio"] = phase.scaled_busy / plain.scaled_busy - 1
    print(f"  traced {count} requests: {plain.busy:.2f} s plain, {phase.busy:.2f} s traced, "
          f"as timed; {plain.scaled_busy:.2f} s and {phase.scaled_busy:.2f} s at the "
          f"reference speed")
    return phase, {name: float(raw.get(name, 0)) for name in MOVES}


if __name__ == "__main__":
    sys.exit(main())
