"""Runs one workload of the awarecheck benchmark from the repository root.

    python3 perfbench/run.py --workload {sweep,query} --seed N \\
        --seconds S --trace {0,1}

The untraced run (--trace 0) times whole rounds of operations until S
seconds of them have passed and reports the end-to-end metrics.  The traced
run (--trace 1) does a fixed amount of work, sized from S at the nominal
rate of each workload, once untraced and once with every layer traced, and
reports self time and counts per layer plus the tracing overhead.

Before the result it prints the kernel backend, the faults behind failed
operations and each metric with its unit; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
Exits 1 when an output check fails, 2 when awarecheck cannot be imported
from src/.
"""

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 11
LATENCY_SAMPLE = 20_000
RSS_ROUNDS = 8          # peak RSS is read after this many rounds
OUT_DIR = ".perfbench-out"      # span files of traced runs

END_TO_END = (  # name, unit
    ("setup_s", "s"),
    ("models_per_s", "structures/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("sweep", "query"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_seconds():
    """Seconds a fresh interpreter takes to import the package and the
    benchmark; a process imports only once, so set-up repeats measure the
    import in a child."""
    paths = [os.path.join(ROOT, "src"), HERE]
    code = (f"import sys, time; sys.path[:0] = {paths!r}; "
            "t = time.perf_counter(); import workloads, tracing; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout)


class Tally:
    """Operations and timings merged over rounds.  Latencies are kept as a
    uniform sample of at most LATENCY_SAMPLE, so that the benchmark's own
    memory does not grow with the speed of the program."""

    def __init__(self, seed):
        self.latencies, self.rates, self.busy = [], [], []
        self.attempted, self.failed, self.rounds, self.timed = 0, 0, 0, 0
        self.faults = Counter()
        self._rng = random.Random(seed)

    def add(self, res):
        for x in res.latencies:
            self.timed += 1
            if len(self.latencies) < LATENCY_SAMPLE:
                self.latencies.append(x)
            else:
                j = self._rng.randrange(self.timed)
                if j < LATENCY_SAMPLE:
                    self.latencies[j] = x
        self.rates.append(len(res.latencies) / sum(res.latencies))
        self.busy.append(res.busy)
        self.attempted += res.attempted
        self.failed += res.failed
        self.faults.update(res.faults)
        self.rounds += 1


def end_to_end(wl, args, setup_s):
    """Whole rounds until args.seconds of operations have passed, and at
    least RSS_ROUNDS of them."""
    tally = Tally(args.seed)
    pass_ = wl.new_pass()
    while sum(tally.busy) < args.seconds or tally.rounds < RSS_ROUNDS:
        tally.add(wl.round(tally.rounds, pass_))
        if tally.rounds == RSS_ROUNDS:
            # after a fixed amount of work: the program keeps every sentence
            # it has evaluated, so a faster program, doing more rounds in
            # the same time, would otherwise be charged for its speed
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wl.fixture_checks()
    lat = tally.latencies
    if tally.timed < 100:
        raise SystemExit(f"error: {tally.timed} operations timed; the p90 "
                         "needs at least 100")
    metrics = {
        "setup_s": setup_s,
        # the median round resists the bursts of a shared machine
        "models_per_s": statistics.median(tally.rates),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
        "peak_rss_mb": rss_mb,
    }
    print(f"{tally.rounds} rounds, {tally.timed} {wl.unit} timed over "
          f"{sum(tally.busy):.2f} s")
    return tally, {name: (metrics[name], unit) for name, unit in END_TO_END}


def per_layer(wl, tracer, args):
    """A fixed number of rounds, each run untraced and traced, in turns, on
    its own copy of the inputs, so both see the same program state."""
    rounds = max(1, round(args.seconds / 2 * wl.nominal_rounds_per_s))
    plain, traced = Tally(args.seed), Tally(args.seed)
    plain_pass, traced_pass = wl.new_pass(), wl.new_pass()
    for r in range(rounds):
        for trace in (r % 2, 1 - r % 2):
            if not trace:
                plain.add(wl.round(r, plain_pass))
                continue
            tracer.install()
            try:
                traced.add(wl.round(r, traced_pass))
            finally:
                tracer.uninstall()
    tracer.install()
    try:
        wl.fixture_checks()
    finally:
        tracer.uninstall()
    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    path = os.path.join(ROOT, OUT_DIR, f"trace-{wl.name}-{args.seed}.jsonl")
    tracer.write(path)
    print(f"{rounds} rounds traced: {len(tracer.spans)} spans written to "
          f"{os.path.relpath(path, ROOT)}")
    metrics = tracer.layer_metrics()
    ratio = statistics.median(t / p for t, p in zip(traced.busy, plain.busy))
    metrics["trace.overhead_pct"] = ((ratio - 1) * 100, "%")
    plain.attempted += traced.attempted
    plain.failed += traced.failed
    plain.faults += traced.faults
    return plain, metrics


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import workloads
        from awarecheck import kernel
        from tracing import Tracer
    except ImportError as exc:
        print(f"error: cannot import awarecheck from src/: {exc}",
              file=sys.stderr)
        return 2
    print(f"backend {kernel.BACKEND}")
    tracer = Tracer()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        wl = workloads.WORKLOADS[args.workload](args.seed, ROOT, work, tracer)
        setups = []
        for _ in range(SETUP_REPEATS):
            t = perf_counter()
            wl.setup()
            setups.append(perf_counter() - t + import_seconds())
        setup_s = statistics.median(setups)
        try:
            if args.trace:
                got, metrics = per_layer(wl, tracer, args)
            else:
                got, metrics = end_to_end(wl, args, setup_s)
        except workloads.CheckFailed as exc:
            print(f"error: output check failed: {exc}", file=sys.stderr)
            return 1
    print(f"{got.attempted} operations attempted, {got.failed} failed")
    for fault, n in sorted(got.faults.items()):
        print(f"  {n} failed: {fault}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:24} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": got.attempted,
        "failed": got.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
