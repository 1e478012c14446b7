"""Benchmarks the native kernels against the pure-Python twins: the profile
closure, and the two interpreters running the same formula programs; then
one closure of a 12-world, 6-proposition random structure (5404 profiles)
on each backend.

Run:  python3 benchmarks/bench_kernel.py [--seconds 2]
"""

import argparse
import random
import time

from awarecheck import kernel
from awarecheck._kernel_py import close_profiles as close_py
from awarecheck._kernel_py import make_evaluator as make_pure_evaluator
from awarecheck.checker import KXA, _context, _program
from awarecheck.fuzz import random_sentence
from awarecheck.model import generate_random

NATIVE = kernel.BACKEND == "c"


def timed(fn, budget):
    n = 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < budget:
        fn()
        n += 1
    return n / (time.perf_counter() - t0)


def closure_inputs(m):
    return _context(m, KXA).model + (KXA.opcodes, 4_000_000)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=2.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    print(f"backend {kernel.BACKEND}: {kernel.BACKEND_REASON}")

    rng = random.Random(args.seed)
    models = [generate_random(2, 4, ["p", "q"], frozenset(), seed=k)
              for k in range(32)]
    inputs = [closure_inputs(m) for m in models]

    def run_closures(close):
        def go():
            for inp in inputs:
                close(*inp)
        return go

    rate_py = timed(run_closures(close_py), args.seconds)
    print(f"closure  python: {rate_py * len(inputs):8.0f} models/s")
    if NATIVE:
        rate_c = timed(run_closures(kernel.close_profiles), args.seconds)
        print(f"closure  c:      {rate_c * len(inputs):8.0f} models/s "
              f"({rate_c / rate_py:.1f}x)")

    formulas = [random_sentence(rng, ("p", "q"), 2, max_depth=4,
                                quantifier_prob=0.3) for _ in range(64)]
    ctxs = [_context(m, KXA) for m in models]
    programs = [_program(models[0], f) for f in formulas]

    def run_programs(make):
        evs = [make(*ctx.model, ctx.profiles) for ctx in ctxs]

        def go():
            for ev in evs:
                for program in programs:
                    ev.run(*program)
        return go

    n_evals = len(ctxs) * len(programs)
    rate_pure = timed(run_programs(make_pure_evaluator), args.seconds)
    print(f"eval     python: {rate_pure * n_evals:8.0f} evals/s")
    if NATIVE:
        rate_fast = timed(run_programs(kernel.make_evaluator), args.seconds)
        print(f"eval     c:      {rate_fast * n_evals:8.0f} "
              f"evals/s ({rate_fast / rate_pure:.1f}x)")

    large = closure_inputs(generate_random(2, 12, list("pqrstu"), seed=1))
    for name, close in [("python", close_py)] + \
            [("c", kernel.close_profiles)] * NATIVE:
        t0 = time.perf_counter()
        records, _ = close(*large)
        print(f"12 worlds, 6 props, {name + ':':7} {len(records)} profiles "
              f"in {time.perf_counter() - t0:.3f} s")


if __name__ == "__main__":
    main()
