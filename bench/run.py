"""Closed-loop benchmark of exact credal decisions.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test
    python3 bench/run.py --record-digests

Run from the root of a source checkout; the harness imports ``credal`` from
``src/``.  One client sends each request only after the previous one has
finished.  Requests go through ``credal.cli.main`` in-process, or through the
library where the CLI cannot reach.  Every answer is checked independently in
exact rationals (see ``workloads.py``), and a fixed canary set is checked
against recorded digests (``digests.json``).

With ``--trace 0`` the last line of output holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run (``tracing.py``).
Everything else printed before it is a human-readable summary.  See
``README.md`` for the workloads, the metrics and the spread measured so far.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import deque
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
DIGESTS = HERE / "digests.json"

MIN_REQUESTS = 100  # p90 needs at least ten samples beyond it
MIN_TRACED_PAIRS = 20
# A run keeps going past --seconds until it has MIN_REQUESTS, but for no more
# than this share of --seconds again, so a slow host cannot stretch a whole
# series of runs past its time budget.
STRETCH = 0.2
CANARY_SEED = "canary"
CANARY_REQUESTS = 4
DETERMINISM_REQUESTS = 4
SETUP_REPEATS = 11
# import first, so that nothing loaded for the reference unit speeds it up
IMPORT_PROBE = """import sys, time
t = time.perf_counter()
import credal
t = time.perf_counter() - t
sys.path.insert(0, sys.argv[1])
from run import reference_time
print(repr(t), repr(sorted(reference_time() for _ in range(3))[1]))
"""
# The reference unit must never change: every time the benchmark reports is
# scaled by it.  REFERENCE_S is what one unit took on the 2-core machine the
# benchmark was written on, so scaled times read close to raw ones there.
REFERENCE_TERMS = 600
REFERENCE_S = 0.004
SPEED_WINDOW = 9


def reference_time() -> float:
    """Seconds taken by fixed exact-rational work, close in kind to credal's."""
    t0 = time.perf_counter()
    s = Fraction(0)
    for i in range(1, REFERENCE_TERMS + 1):
        s += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    return time.perf_counter() - t0


class HostSpeed:
    """Rolling estimate of how fast the host runs right now.

    The host's speed drifts by up to a third within a minute, and process
    CPU time drifts with it, so raw times of identical work differ that much
    between runs.  A reference unit timed just before every measured call
    tracks the drift; a measured time multiplied by ``scale()`` is the time
    the call would have taken at reference speed.
    """

    def __init__(self):
        self.recent = deque(maxlen=SPEED_WINDOW)
        for _ in range(SPEED_WINDOW):
            self.probe()

    def probe(self) -> None:
        self.recent.append(reference_time())

    def scale(self) -> float:
        return REFERENCE_S / statistics.median(self.recent)


def measure_setup() -> float:
    """Median time of ``import credal`` in a fresh interpreter, speed-scaled.

    One unmeasured import first writes the bytecode caches, as any earlier
    use of the installed package would have.  The child times the reference
    unit itself, right after the import: in this process a unit timed just
    after a child has run reads up to half again slower than one a moment
    later.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for r in range(SETUP_REPEATS + 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(HERE)], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        if r:
            t_import, t_ref = map(float, out.stdout.split())
            times.append(t_import * REFERENCE_S / t_ref)
    return statistics.median(times)


def evaluate(workload, case, raw) -> list[str]:
    """Failures of one answer: unusable output or failed checks."""
    try:
        return workload.check(case, workload.answer(raw))
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        return [f"malformed answer: {type(exc).__name__}: {exc}"]


def solve(workload, case, credal):
    try:
        return workload.request(case, credal), None
    except Exception as exc:  # a failed request is counted, not fatal
        return None, f"request raised {type(exc).__name__}: {exc}"


def canary_digest(workload, credal, workdir):
    """Digest of the exact answers to the canary requests, and their answers."""
    views, pairs, errs = [], [], []
    for i in range(CANARY_REQUESTS):
        case = workload.make(CANARY_SEED, i)
        workload.prepare(case, workdir, credal)
        raw, err = solve(workload, case, credal)
        bad = [err] if err is not None else evaluate(workload, case, raw)
        if bad:
            errs.append(f"canary {i}: {bad[0]}")
            continue
        ans = workload.answer(raw)
        views.append(workload.digest_view(case, ans))
        pairs.append((case, ans))
    blob = json.dumps(views, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest(), pairs, errs


def canary_errors(workload, credal, workdir, seed) -> tuple[str, list[str]]:
    """The canary digest, and every canary, digest and self-test failure."""
    digest, pairs, errs = canary_digest(workload, credal, workdir)
    recorded = json.loads(DIGESTS.read_text())["digests"].get(workload.name)
    if digest != recorded:
        errs.append(f"canary digest {digest} != recorded {recorded}")
    return digest, errs + self_test(workload, pairs, seed)


def self_test(workload, pairs, seed) -> list[str]:
    """Planted wrong answers must fail their checks; inputs must be reproducible."""
    errs = []
    for case, ans in pairs:
        for label, wrong, expect in workload.plants(case, ans):
            found = workload.check(case, wrong)
            if not any(expect in f for f in found):
                errs.append(f"self-test: planted {label} on canary {case.index} was not caught")
    for i in range(DETERMINISM_REQUESTS):
        if workload.make(seed, i).input_bytes() != workload.make(seed, i).input_bytes():
            errs.append(f"self-test: seed {seed} request {i} inputs differ between generations")
    return errs


def percentile(sorted_values, q):
    """Nearest-rank percentile: the smallest value with a share q at or below it."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Run:
    """One closed-loop client: generate, send, wait, check, repeat."""

    def __init__(self, workload, credal, seed, workdir):
        self.workload, self.credal, self.seed, self.workdir = workload, credal, seed, workdir
        self.attempted = 0
        self.failures: list[str] = []
        self.raw: list[float] = []  # unscaled request times
        self.scales: list[float] = []  # host-speed scale of each request
        self.speed = HostSpeed()

    def next_case(self, i):
        case = self.workload.make(self.seed, i)
        self.workload.prepare(case, self.workdir, self.credal)
        return case

    def timed(self, case, call=None):
        """One request's speed-scaled time; the answer is checked after the clock stops."""
        call = call or (lambda: solve(self.workload, case, self.credal))
        self.speed.probe()
        t0 = time.perf_counter()
        raw, err = call()
        dt = time.perf_counter() - t0
        self.raw.append(dt)
        self.scales.append(self.speed.scale())
        self.attempted += 1
        bad = [err] if err is not None else evaluate(self.workload, case, raw)
        if bad:
            self.failures.append(f"request {case.index}: {bad[0]}")
        return dt * self.scales[-1]

    def more(self, seconds, done, at_least):
        """Keep going until ``seconds`` of requests and ``at_least`` of them."""
        busy = sum(self.raw)
        return busy < seconds or (done < at_least and busy < seconds * (1 + STRETCH))

    def closed_loop(self, seconds):
        latencies = []
        while self.more(seconds, len(latencies), MIN_REQUESTS):
            latencies.append(self.timed(self.next_case(len(latencies))))
        return latencies

    def traced_loop(self, seconds, tracer):
        """Each input twice, traced and untraced, alternating which goes first.

        Returns both lists of scaled times and the scale of each traced request.
        """
        plain, traced, scale = [], [], {}
        while self.more(seconds, len(traced), MIN_TRACED_PAIRS):
            i = len(traced)
            case = self.next_case(i)
            for traced_turn in ((False, True) if i % 2 else (True, False)):
                if traced_turn:
                    tracer.install()
                    try:
                        traced.append(self.timed(case, lambda: tracer.root(
                            i, solve, self.workload, case, self.credal)))
                    finally:
                        tracer.remove()
                    scale[i] = self.scales[-1]
                else:
                    plain.append(self.timed(case))
        return plain, traced, scale


def print_table(title, metrics, units):
    print(title)
    for name, value in metrics.items():
        print(f"  {name:32s} {value:>14.6g} {units.get(name, '')}")


@contextlib.contextmanager
def scratch_dir(tag):
    """A fresh directory for problem files, removed afterwards."""
    path = WORK / f"{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def run(args, credal, workloads) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = workloads[args.workload]
    with scratch_dir(f"{workload.name}-{args.seed}") as workdir:
        setup_s = measure_setup() if not args.trace else None
        digest, errs = canary_errors(workload, credal, workdir, args.seed)
        r = Run(workload, credal, args.seed, workdir)

        if args.trace:
            from tracing import Tracer, layer_metrics
            tracer = Tracer()
            plain, traced, scale = r.traced_loop(args.seconds, tracer)
            metrics = layer_metrics(tracer.spans, len(traced), scale)
            metrics["trace.overhead_frac"] = 1 - sum(plain) / sum(traced)
            tracer.dump(WORK / f"spans-{workload.name}-{args.seed}.jsonl")
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            wanted = [m["name"] for m in spec["per_layer"]]
        else:
            lat = r.closed_loop(args.seconds)
            ordered = sorted(lat)
            metrics = {
                "problems_per_s": len(lat) / sum(lat),
                "latency_p50_s": statistics.median(lat),
                "latency_p90_s": percentile(ordered, 0.9),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "setup_s": setup_s,
            }
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            wanted = [m["name"] for m in spec["end_to_end"]]

    failed = len(r.failures)
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"canary digest {digest[:16]}")
    print(f"requests attempted {r.attempted}  failed {failed}  "
          f"failed_frac {failed / r.attempted:.6g}"
          + ("" if args.trace else f"  latency samples {len(lat)}"
             + ("" if len(lat) >= MIN_REQUESTS else " (too few for p90)")))
    print(f"unscaled request seconds {sum(r.raw):.3f}  mean speed scale "
          f"{statistics.mean(r.scales):.4f}  unscaled p50 {statistics.median(r.raw):.6g} s")
    print_table("metrics:", metrics, units)
    for line in (errs + r.failures)[:10]:
        print(f"FAIL {line}")
    result = {
        "correct": not errs and not r.failures,
        "attempted": r.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in wanted},
    }
    print(json.dumps(result))
    return 0


def self_test_all(credal, workloads) -> int:
    bad = 0
    with scratch_dir("self-test") as workdir:
        for name, workload in workloads.items():
            _, errs = canary_errors(workload, credal, workdir, seed=0)
            print(f"{name}: {CANARY_REQUESTS} canaries and their planted wrong answers "
                  f"{'ok' if not errs else 'FAILED'}")
            for e in errs:
                print(f"  {e}")
            bad += bool(errs)
    return 1 if bad else 0


def record_digests(credal, workloads) -> int:
    out = {}
    with scratch_dir("record") as workdir:
        for name, workload in workloads.items():
            out[name], _, errs = canary_digest(workload, credal, workdir)
            if errs:
                print("\n".join(errs), file=sys.stderr)
                return 1
    DIGESTS.write_text(json.dumps({"canary_seed": CANARY_SEED, "canary_requests": CANARY_REQUESTS,
                                   "digests": out}, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
    return 0


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true", help="check the checkers and exit")
    p.add_argument("--record-digests", action="store_true", help="rewrite digests.json")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "credal" / "__init__.py").is_file():
        print(f"error: no credal sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        # one process per workload, so that each reports its own peak memory
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in WORKLOADS]
        return max(codes)
    sys.path.insert(0, str(ROOT / "src"))
    import credal
    import credal.cli
    import credal.reduction

    if args.self_test:
        return self_test_all(credal, WORKLOADS)
    if args.record_digests:
        return record_digests(credal, WORKLOADS)
    if args.workload is None:
        p.error("--workload is required")
    return run(args, credal, WORKLOADS)


if __name__ == "__main__":
    sys.exit(main())
