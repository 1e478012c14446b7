"""Prints what the CLI answers on a fixed corpus, so that two checkouts can be
compared byte for byte: `profiles --json` for both fixtures and for 200
`gen --agents 2 --worlds 4 --props p,q,r --seed N` structures, each under
KXA and XA with and without --include-top, then `eval --json` for 2000
seeded random sentences (quantifiers, shadowed variables and `true`
included) at random worlds of those structures.  Then the structures
themselves: the same `gen` for seeds 0-199 under every class, and every
`enum` stream of ENUMS in its order, with its `--count-only` count.  Then
`sweep --json` for every system of SWEEPS over rte structures and over
structures of no class, where schemas such as T, 4 and 5_star fail, with
and without --check-rules, for three seeds; the rte runs also sweep the
enumerated structures of up to 2 worlds.  Then `eval --json` of 8 seeded
quantified sentences each (a quantifier over a quantifier-free body, or
nested quantifiers) on 36 `gen` structures with 2-3 agents, 6-8 worlds and
3-4 propositions, the sizes of perfbench's `query` structures.  Last,
`prove --json`, with and without --include-top, for every script in
fixtures/proofs/ and for one-line scripts that claim each schema of each
system of PROVE_SYSTEMS for 3 seeded instances of it, and for the same
instances another schema of that system, chosen at random, which mostly
rejects them.

Run:  PYTHONPATH=src python3 benchmarks/dump_outputs.py OUT.txt
      (then diff OUT.txt against the same run in another checkout)
"""

import contextlib
import glob
import io
import json
import os
import random
import sys
import tempfile

from awarecheck import kernel
from awarecheck.cli import main
from awarecheck.fuzz import random_open_formula, random_sentence
from awarecheck.model import load_model
from awarecheck.proofs import SCHEMA_NAMES, SYSTEMS, parse_system, \
    schema_instances
from awarecheck.syntax import TOP, Forall, is_quantifier_free, pretty

VARIANTS = ([], ["--include-top"], ["--domain", "XA"],
            ["--domain", "XA", "--include-top"])
CLASSES = ("", "r", "t", "e", "rt", "re", "te", "rte")
ENUMS = (["--agents", "1", "--max-worlds", "3", "--props", "p,q",
          "--class", "rte"],
         ["--agents", "1", "--max-worlds", "3", "--props", "p,q",
          "--constant-language"],
         ["--agents", "2", "--max-worlds", "2", "--props", "p"])
SWEEPS = ("AXe_KXAAstarforall+T45star", "AXe_KAstar+T45star",
          "AXe_XAforall+TX4X5X", "AXe_KXAAstarforall")
# every base system, and one that adds all 29 schemas to the richest
# language, so that every schema reaches the matcher
PROVE_SYSTEMS = (*SYSTEMS, "AXe_KXAAstarforall+" + ",".join(SCHEMA_NAMES))


def call(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def dump(out, tmp):
    paths = ["fixtures/M_barcan.json", "fixtures/M_unc.json"]
    for n in range(200):
        path = os.path.join(tmp, f"g{n}.json")
        call("gen", "--agents", "2", "--worlds", "4", "--props", "p,q,r",
             "--seed", str(n), "--out", path)
        paths.append(path)
    names = {path: os.path.basename(path) for path in paths}
    for path in paths:
        for variant in VARIANTS:
            code, text = call("profiles", path, "--json", *variant)
            text = text.replace(path, names[path])
            out.write(f"{names[path]} {variant} {code} {text}")
    rng = random.Random(2024)
    for k in range(2000):
        path = paths[k % 40] if k % 2 else rng.choice(paths)
        m = load_model(path)
        f = random_sentence(rng, m.props, m.agents, max_depth=4,
                            quantifier_prob=0.3, allow_top=(k % 3 == 0))
        world = rng.choice(m.worlds)
        variant = VARIANTS[k % 4]
        code, text = call("eval", path, world, pretty(f), "--json", *variant)
        text = text.replace(path, names[path])
        out.write(f"{names[path]} {world} {variant} {code} {text}")
    for cls in CLASSES:
        argv = ["gen", "--agents", "2", "--worlds", "4", "--props", "p,q,r",
                "--class", cls, "--count", "200"]
        code, text = call(*argv)
        out.write(f"{argv} {code}\n{text}")
    for bounds in ENUMS:
        code, text = call("enum", "--count-only", *bounds)
        out.write(f"enum {bounds} count {code} {text}")
        out.flush()
        with contextlib.redirect_stdout(out):  # one line per structure
            code = main(["enum", *bounds])
        out.write(f"enum {bounds} {code}\n")
    for system in SWEEPS:
        for seed in range(3):
            for cls in (["--class", "rte", "--enum-max-worlds", "2"],
                        ["--class", "", "--agents", "2"]):
                for rules in ([], ["--check-rules"]):
                    argv = ["sweep", system, "--models", "40", "--seed",
                            str(seed), "--instances", "4", *cls, *rules,
                            "--json"]
                    code, text = call(*argv)
                    out.write(f"{argv} {code} {text}")
    rng = random.Random(2009)
    for n in range(36):
        path = os.path.join(tmp, f"b{n}.json")
        call("gen", "--agents", str(rng.randint(2, 3)), "--worlds",
             str(rng.randint(6, 8)), "--props", "p,q,r,s"[:2 * rng.randint(
                 3, 4) - 1], "--seed", str(n), "--out", path)
        m = load_model(path)
        for k in range(8):
            if k % 2:
                f = TOP
                while is_quantifier_free(f):
                    f = random_sentence(rng, m.props, m.agents, max_depth=4,
                                        quantifier_prob=0.4,
                                        allow_top=(k % 3 == 0))
            else:
                f = Forall("x", random_open_formula(rng, m.props, m.agents,
                                                    "x", max_depth=3))
            world = rng.choice(m.worlds)
            variant = VARIANTS[(n + k) % 4]
            code, text = call("eval", path, world, pretty(f), "--json",
                              *variant)
            out.write(f"b{n}.json {world} {variant} {code} "
                      f"{text.replace(path, f'b{n}.json')}")
    scripts = [(os.path.basename(path), path)
               for path in sorted(glob.glob("fixtures/proofs/*.json"))]
    rng = random.Random(10)
    for spec in PROVE_SYSTEMS:
        system = parse_system(spec)
        names = sorted(system.schemas)
        for name in names:
            for inst in schema_instances(rng, name, ("p", "q"), 2, system,
                                         3, 3):
                for claim in (name, rng.choice(names)):
                    path = os.path.join(tmp, f"s{len(scripts)}.json")
                    with open(path, "w", encoding="utf-8") as fh:
                        json.dump({"system": spec, "agents": 2, "lines": [
                            {"formula": pretty(inst),
                             "just": {"axiom": claim}}]}, fh)
                    scripts.append((f"{spec} {name} {claim}", path))
    for label, path in scripts:
        for variant in ([], ["--include-top"]):
            code, text = call("prove", path, "--json", *variant)
            out.write(f"{label} {variant} {code} "
                      f"{text.replace(path, 'script')}")


if __name__ == "__main__":
    print(f"backend {kernel.BACKEND}: {kernel.BACKEND_REASON}",
          file=sys.stderr)
    with open(sys.argv[1], "w", encoding="utf-8") as out, \
            tempfile.TemporaryDirectory() as tmp:
        dump(out, tmp)
