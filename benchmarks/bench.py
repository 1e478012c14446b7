"""Records one point of the benchmark trajectory: BENCH_<LABEL>.json at the
repository root, with perfbench's result line for the `sweep` and `query`
workloads at fixed seeds and the benchmark's own run length, bench_kernel.py's
numbers at a fixed time budget, the Tier-1 suite's wall time and outcome
counts with the durations of its slowest tests (c2, c3, c4 and c9), the
kernel backend and why it was chosen, the machine it ran on, and
`src_lines`: per file of src/awarecheck/ and in total, the lines that hold
code, neither blank nor only comment nor docstring (found with ast and
tokenize in *.py; _kernel.c is counted with its comments stripped).
`tier1_pure` has the same fields for a second Tier-1 run on the pure
kernels: from a copy of src/ without __pycache__/, so that no cached
native library loads, and with a PATH that holds only a link to the
Python interpreter, so that no cc can build one.

Run:  python3 benchmarks/bench.py LABEL [--base REV --pairs N]
                                        [--workloads sweep query]

perfbench runs in a child process per workload, from this checkout's src/,
and so does each Tier-1 run, writing its per-test durations to a temporary
JUnit XML file.

With --base, the file also gets a `pairs` section: REV is exported with
`git archive` into a temporary directory, and each workload then runs N
pairs of perfbench runs, one from each checkout, each with its own
perfbench/run.py and src/, the base first in even pairs and second in odd
ones, so that neither side always runs after the other.  Per workload and
end-to-end metric it records each side's median and quartiles, the median
of the per-pair ratios head / base and in how many pairs the head did
better, in BENCHMARK.json's direction; per side the share of failed
operations; and per side the wall time and the CPU time of the runs' child
processes (getrusage(RUSAGE_CHILDREN) before and after each run), whose
ratio shows how much of the machine a run got: other tenants' load enters
wall time directly and CPU time less; and the base's src_lines.
--workloads limits the perfbench runs, paired or not, to the workloads
named.  One unpaired run says little on a machine shared with others.
To record another checkout whose structures have encoding(), copy this file
and bench_kernel.py into its benchmarks/ and run it there.
"""

import argparse
import ast
import contextlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import tokenize
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


def perfbench(workload, root=ROOT):
    """The last line of the output of perfbench/run.py of the checkout at
    root, parsed, with the run's wall time and the CPU time of its child
    processes, in seconds, under "wall_s" and "cpu_s"."""
    before, start = resource.getrusage(resource.RUSAGE_CHILDREN), \
        time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(SEEDS[workload]),
         "--seconds", str(SECONDS)],
        cwd=root, capture_output=True, text=True, check=True)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = json.loads(done.stdout.splitlines()[-1])
    result["wall_s"] = round(wall, 3)
    result["cpu_s"] = round(after.ru_utime + after.ru_stime
                            - before.ru_utime - before.ru_stime, 3)
    return result


def _code_lines(path):
    """The numbers of the lines of a Python file that hold a token other
    than a comment, outside the docstrings of its module, classes and
    functions."""
    with open(path, "rb") as fh:
        source = fh.read()
    docs = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and body and \
                isinstance(body[0], ast.Expr) and \
                isinstance(body[0].value, ast.Constant) and \
                isinstance(body[0].value.value, str):
            docs.update(range(body[0].lineno, body[0].end_lineno + 1))
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                            tokenize.INDENT, tokenize.DEDENT,
                            tokenize.ENCODING, tokenize.ENDMARKER):
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines - docs


def src_lines(root=ROOT):
    """{file of src/awarecheck/: lines of code, "total": their sum}: a *.py
    file's lines that hold code, outside docstrings, and _kernel.c's lines
    that are not blank once its comments are stripped."""
    pkg = os.path.join(root, "src", "awarecheck")
    out = {}
    for name in sorted(os.listdir(pkg)):
        path = os.path.join(pkg, name)
        if name.endswith(".py"):
            out[name] = len(_code_lines(path))
        elif name.endswith(".c"):
            with open(path, encoding="utf-8") as fh:
                text = re.sub(r"/\*.*?\*/|//[^\n]*",
                              lambda c: "\n" * c[0].count("\n"), fh.read(),
                              flags=re.S)
            out[name] = sum(bool(line.strip()) for line in text.splitlines())
    out["total"] = sum(out.values())
    return out


def _spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def pairs(base, n, workloads):
    """The `pairs` section: n alternating pairs of perfbench runs per
    workload, of the checkout of base and of this one."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    commit = subprocess.run(["git", "rev-parse", base], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    runs = {workload: {"base": [], "head": []} for workload in workloads}
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", commit], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        roots = {"base": tmp, "head": ROOT}
        for root in roots.values():  # builds the native kernel, if it can
            subprocess.run([sys.executable, "-c", "import awarecheck.kernel"],
                           cwd=root, check=True, env=dict(
                               os.environ, PYTHONPATH=os.path.join(root,
                                                                   "src")))
        for k in range(n):
            order = ("base", "head") if k % 2 == 0 else ("head", "base")
            for workload, got in runs.items():
                for side in order:
                    got[side].append(perfbench(workload, roots[side]))
        base_lines = src_lines(tmp)
    out = {"base": base, "base_commit": commit, "n": n,
           "order": "base first in even pairs", "base_src_lines": base_lines,
           "workloads": {}}
    for workload, got in runs.items():
        metrics = {}
        for name, direction in better.items():
            values = {side: [run["metrics"][name]["value"] for run in sides]
                      for side, sides in got.items()}
            ratios = [h / b for b, h in zip(values["base"], values["head"])]
            metrics[name] = {
                "better": direction, "ratio_median": statistics.median(ratios),
                "won": sum(r < 1 if direction == "lower" else r > 1
                           for r in ratios),
                **{side: _spread(v) for side, v in values.items()}}
        out["workloads"][workload] = {
            "seed": SEEDS[workload], "seconds": SECONDS, "metrics": metrics,
            **{key: {side: _spread([r[key] for r in sides])
                     for side, sides in got.items()}
               for key in ("wall_s", "cpu_s")},
            "failed_share": {
                side: sum(r["failed"] for r in sides) / sum(
                    r["attempted"] for r in sides)
                for side, sides in got.items()}}
    return out


def tier1(pure=False):
    """Tier-1's wall time, its outcome counts and the SLOW_TESTS durations,
    in seconds, from one pytest run; with pure, on the pure kernels (see
    the module docstring)."""
    with tempfile.TemporaryDirectory() as tmp:
        src, env = os.path.join(ROOT, "src"), dict(os.environ)
        if pure:
            src, bin_dir = os.path.join(tmp, "src"), os.path.join(tmp, "bin")
            shutil.copytree(os.path.join(ROOT, "src"), src,
                            ignore=shutil.ignore_patterns("__pycache__"))
            os.mkdir(bin_dir)
            os.symlink(sys.executable, os.path.join(
                bin_dir, os.path.basename(sys.executable)))
            env["PATH"] = bin_dir
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))
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
    ap.add_argument("--base", help="a revision to run paired against")
    ap.add_argument("--pairs", type=int, default=10,
                    help="pairs of perfbench runs per workload (10)")
    ap.add_argument("--workloads", nargs="+", choices=sorted(SEEDS),
                    default=sorted(SEEDS), help="perfbench workloads to run "
                    "(all)")
    args = ap.parse_args(argv)
    label = args.label
    if args.base is not None and args.pairs < 2:
        ap.error("--pairs must be at least 2")
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
        "perfbench": {name: {"seed": SEEDS[name], "seconds": SECONDS,
                             "result": perfbench(name)}
                      for name in args.workloads},
        "bench_kernel": {name: {"value": value, "unit": unit}
                         for name, (value, unit) in numbers.items()},
        "tier1": tier1(),
        "tier1_pure": tier1(pure=True),
        "src_lines": src_lines(),
    }
    if args.base is not None:
        out["pairs"] = pairs(args.base, args.pairs, args.workloads)
    path = os.path.join(ROOT, f"BENCH_{label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)


if __name__ == "__main__":
    main()
