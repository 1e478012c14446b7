"""Times building structures as perfbench's `sweep` draws them, per
structure: rte structures with 1 agent, 3 worlds and propositions p, q, from
generate_random at seeded draws and from enumerate_models' whole stream.
Then benchmarks the native kernel class against its pure-Python twin: the
profile closure, and the two interpreters running the same formula programs;
then one closure of a 12-world, 6-proposition random structure (5404
profiles) on each backend, and the same closure, on the native backend only
when it is built, of 48 seeded random structures with 2-3 agents, 6-8
worlds and 3-4 propositions, the structures perfbench's `query` writes to
its model files; then the time
load_model takes per file on those 48 files, written by save_model; then
the c4 sweep's instance corpus (about 60 sentences) on one rte structure,
as one program per sentence run one by one against one program
with a root per sentence run once; last, on each backend, a cold witness
search as `awarecheck eval` makes it: on each of the 48 structures, three
sentences `forall #x . body` as perfbench's `query` draws them, each at a
random world, with forall_witness timed right after evaluate() on a fresh
kernel; and on each backend cold evaluate_with_witness calls, as `awarecheck
eval` makes them, at w0 of the one of the 48 structures with 2048 profile
records: for `forall #x . #x`, False with a seed as witness, so its closure
stops at layer 0, and for `forall #x . (#x | !#x)`, True, so it closes all
ten layers and runs the program after each.

A native closure keeps its output in C, so its times cover ak_close and not
the copy into Python lists, which only the readers of the records make;
the counts read only the closure's length.  main() prints the numbers and
returns them as a dict, which benchmarks/bench.py records.

Run:  python3 benchmarks/bench_kernel.py [--seconds 2]
"""

import argparse
import os
import random
import tempfile
import time

from awarecheck import checker, kernel
from awarecheck._kernel_py import Kernel
from awarecheck.checker import KXA, _compile_program, _program
from awarecheck.fuzz import random_open_formula, random_sentence
from awarecheck.model import (count_models, enumerate_models, generate_random,
                              load_model, save_model)
from awarecheck.proofs import parse_system, schema_instances
from awarecheck.syntax import Forall, parse

CLASSES = [("python", Kernel)] + \
    [("c", kernel.NativeKernel)] * (kernel.BACKEND == "c")


def timed(fn, budget):
    n = 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < budget:
        fn()
        n += 1
    return n / (time.perf_counter() - t0)


def report(results, what, n, unit, rates):
    for (name, _), rate in zip(CLASSES, rates):
        ratio = f" ({rate / rates[0]:.1f}x)" if name != "python" else ""
        print(f"{what:8} {name + ':':7} {rate * n:8.0f} {unit}{ratio}")
        results[f"{what}.{name}"] = (rate * n, unit)


def main(argv=None):
    """Prints each number and returns {name: (value, unit)}."""
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=2.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    print(f"backend {kernel.BACKEND}: {kernel.BACKEND_REASON}")
    results = {}

    rte, pq = frozenset("rte"), ("p", "q")
    rng = random.Random(args.seed)
    seeds = [rng.randrange(2 ** 31) for _ in range(150)]
    for what, n, build in (
            ("random", len(seeds), lambda: [
                generate_random(1, 3, pq, rte, seed=s) for s in seeds]),
            ("enum", count_models(1, 3, pq, rte),
             lambda: sum(1 for _ in enumerate_models(1, 3, pq, rte)))):
        took = 1e6 / (timed(build, args.seconds) * n)
        print(f"build    {what + ':':7} {took:8.2f} us per structure "
              f"({n} structures)")
        results[f"build.{what}"] = (took, "us")

    rng = random.Random(args.seed)
    models = [generate_random(2, 4, ["p", "q"], frozenset(), seed=k)
              for k in range(32)]
    inputs = [m.encoding() for m in models]

    def run_closures(cls):
        def go():
            for inp in inputs:
                cls(*inp).close(KXA.opcodes, 4_000_000)
        return go

    report(results, "closure", len(inputs), "models/s",
           [timed(run_closures(cls), args.seconds) for _, cls in CLASSES])

    formulas = [random_sentence(rng, ("p", "q"), 2, max_depth=4,
                                quantifier_prob=0.3) for _ in range(64)]
    programs = [_program(models[0], f) for f in formulas]

    def run_programs(cls):
        kernels = [cls(*inp) for inp in inputs]
        for k in kernels:
            k.close(KXA.opcodes, 4_000_000)

        def go():
            for k in kernels:
                for program in programs:
                    k.run(*program)
        return go

    report(results, "eval", len(inputs) * len(programs), "evals/s",
           [timed(run_programs(cls), args.seconds) for _, cls in CLASSES])

    large = generate_random(2, 12, list("pqrstu"), seed=1).encoding()
    for name, cls in CLASSES:
        t0 = time.perf_counter()
        records, _ = cls(*large).close(KXA.opcodes, 4_000_000)
        took = time.perf_counter() - t0
        print(f"12 worlds, 6 props, {name + ':':7} {len(records):5} profiles "
              f"in {took:.3f} s")
        results[f"large.{name}.full"] = (took, "s")
        results[f"large.{name}.full.profiles"] = (len(records), "count")

    rng = random.Random(2009)
    medium_models = [generate_random(
        rng.randint(2, 3), rng.randint(6, 8),
        ("p", "q", "r", "s")[:rng.randint(3, 4)],
        seed=rng.randrange(2 ** 31)) for _ in range(48)]
    medium = [m.encoding() for m in medium_models]
    name, cls = CLASSES[-1]
    t0 = time.perf_counter()
    n = sum(len(cls(*inp).close(KXA.opcodes, 4_000_000)[0]) for inp in medium)
    took = time.perf_counter() - t0
    print(f"48 structures, 6-8 worlds, {name + ':':7} {n:6} profiles in "
          f"{took:.3f} s")
    results[f"medium.{name}.full"] = (took, "s")
    results[f"medium.{name}.full.profiles"] = (n, "count")

    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"model{k:02d}.json")
                 for k in range(len(medium_models))]
        for m, path in zip(medium_models, paths):
            save_model(m, path)
        took = 1e6 / (timed(lambda: [load_model(path) for path in paths],
                            args.seconds) * len(paths))
    print(f"load     {took:8.1f} us per model file ({len(paths)} files)")
    results["load"] = (took, "us")

    # c4's corpus: AXe_KXAAstarforall+T45star, 4 instances per schema of
    # depth 3, seed 43
    system = parse_system("AXe_KXAAstarforall+T45star")
    rng = random.Random(43)
    corpus = [inst for name in sorted(system.schemas)
              for inst in schema_instances(rng, name, ("p", "q"), 1, system,
                                           4, 3)]
    m = generate_random(1, 3, ("p", "q"), frozenset("rte"), seed=0)
    singles = [_program(m, f) for f in corpus]
    code, roots = _compile_program(corpus, {"p": 0, "q": 1}, 1)
    nodes = sum(len(c[0]) for c, _ in singles)
    print(f"corpus: {len(corpus)} sentences, {nodes} nodes one by one, "
          f"{len(code[0])} in one program")
    for name, cls in CLASSES:
        k = cls(*m.encoding())
        k.close(system.domain.opcodes, 4_000_000)

        def one_by_one():
            for program in singles:
                k.run(*program)

        def batched():
            k.program = None  # the pure kernel would keep its node values
            k.run(code, roots)

        rates = [timed(fn, args.seconds) for fn in (one_by_one, batched)]
        print(f"corpus   {name + ':':7} {1e6 / rates[0]:8.1f} us one by one, "
              f"{1e6 / rates[1]:8.1f} us batched per structure "
              f"({rates[1] / rates[0]:.1f}x)")
        results[f"corpus.{name}.one_by_one"] = (1e6 / rates[0], "us")
        results[f"corpus.{name}.batched"] = (1e6 / rates[1], "us")

    rng = random.Random(2010)
    searches = [(m, rng.choice(m.worlds),
                 Forall("x", random_open_formula(rng, m.props, m.agents, "x",
                                                 max_depth=3)))
                for m in medium_models for _ in range(3)]
    for name, cls in CLASSES:
        native = checker.NativeKernel
        checker.NativeKernel = cls  # the class every new kernel takes
        took, n, stop = 0.0, 0, time.perf_counter() + args.seconds
        try:
            while time.perf_counter() < stop:
                for m, w, f in searches:
                    m._ctx_cache.clear()
                    checker.evaluate(m, w, f)
                    t0 = time.perf_counter()
                    checker.forall_witness(m, w, f)
                    took += time.perf_counter() - t0
                n += len(searches)
        finally:
            checker.NativeKernel = native
        print(f"witness  {name + ':':7} {1e6 * took / n:8.1f} us per cold "
              f"search ({n // len(searches)} x {len(searches)} searches)")
        results[f"witness.{name}"] = (1e6 * took / n, "us")

    m = medium_models[14]  # 2048 profile records in 10 layers
    for name, cls in CLASSES:
        native = checker.NativeKernel
        checker.NativeKernel = cls
        try:
            for verdict, text in (("false", "forall #x . #x"),
                                  ("true", "forall #x . (#x | !#x)")):
                f = parse(text, m.agents)

                def query():
                    m._ctx_cache.clear()
                    checker.evaluate_with_witness(m, "w0", f)

                took = 1e6 / timed(query, args.seconds)
                print(f"layered  {name + ':':7} {took:8.1f} us per cold "
                      f"{verdict} eval at w0 of 2048 profile records")
                results[f"layered.{name}.{verdict}"] = (took, "us")
        finally:
            checker.NativeKernel = native
    return results


if __name__ == "__main__":
    main()
