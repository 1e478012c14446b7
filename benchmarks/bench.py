"""Records one point of the benchmark trajectory: BENCH_<LABEL>.json at the
repository root, with perfbench's result line for the `sweep` and `query`
workloads at fixed seeds and the benchmark's own run length, bench_kernel.py's
numbers at a fixed time budget, the Tier-1 suite's wall time and outcome
counts with the durations of its slowest tests (c2, c3, c4 and c9), the
kernel backend and why it was chosen, and the machine it ran on.

Run:  python3 benchmarks/bench.py LABEL

perfbench runs in a child process per workload, from this checkout's src/,
and so does Tier-1, once, writing its per-test durations to a temporary
JUnit XML file.
To record another checkout whose structures have encoding(), copy this file
and bench_kernel.py into its benchmarks/ and run it there.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from xml.etree import ElementTree

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = {"sweep": 1, "query": 1}
SECONDS = 55         # perfbench's run length per workload, BENCHMARK.json's
KERNEL_SECONDS = 1   # bench_kernel.py's budget per timed row
# the Tier-1 command of ROADMAP.md, and the tests whose durations are kept
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
SLOW_TESTS = {"c2": "test_c2_uncertainty_formula",
              "c3": "test_c3_theorem2_soundness",
              "c4": "test_c4_theorem3_soundness",
              "c9": "test_c9_quantifier_oracle_equivalence"}


def perfbench(workload):
    """The last line of perfbench/run.py's output, parsed."""
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(SEEDS[workload]),
         "--seconds", str(SECONDS)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def tier1():
    """Tier-1's wall time, its outcome counts and the SLOW_TESTS durations,
    in seconds, from one pytest run."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"),
                      os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryDirectory() as tmp:
        xml = os.path.join(tmp, "tier1.xml")
        start = time.perf_counter()
        done = subprocess.run([sys.executable, *TIER1, f"--junitxml={xml}"],
                              cwd=ROOT, env=env, capture_output=True)
        wall = time.perf_counter() - start
        suite = ElementTree.parse(xml).getroot()
    if suite.tag != "testsuite":
        suite = suite.find("testsuite")
    times = {case.get("name"): float(case.get("time"))
             for case in suite.iter("testcase")}
    out = {"wall_s": round(wall, 2), "exit_code": done.returncode}
    out.update((key, int(suite.get(key, 0)))
               for key in ("tests", "failures", "errors", "skipped"))
    out.update((key, times.get(name)) for key, name in SLOW_TESTS.items())
    return out


def machine():
    info = {"platform": platform.platform(), "python": sys.version.split()[0],
            "cpus": os.cpu_count()}
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        info["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                            if line.startswith("model name")), None)
    with contextlib.suppress(OSError, subprocess.CalledProcessError):
        info["commit"] = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT,
            capture_output=True, text=True, check=True).stdout.strip()
    return info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("label")
    label = ap.parse_args(argv).label
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import bench_kernel
    from awarecheck import kernel
    with contextlib.redirect_stdout(io.StringIO()):
        numbers = bench_kernel.main(["--seconds", str(KERNEL_SECONDS)])
    out = {
        "label": label,
        "backend": kernel.BACKEND,
        "backend_reason": kernel.BACKEND_REASON.replace(ROOT + os.sep, ""),
        "machine": machine(),
        "perfbench": {name: {"seed": seed, "seconds": SECONDS,
                             "result": perfbench(name)}
                      for name, seed in SEEDS.items()},
        "bench_kernel": {name: {"value": value, "unit": unit}
                         for name, (value, unit) in numbers.items()},
        "tier1": tier1(),
    }
    path = os.path.join(ROOT, f"BENCH_{label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)


if __name__ == "__main__":
    main()
