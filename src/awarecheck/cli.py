"""Command-line surface.

Exit codes: 0 = True / ok / accepted / valid, 1 = False / violation /
counterexample / rejected, 2 = error: bounds, a class or propositions that
gen, enum or sweep cannot use, a malformed model or proof script, a formula
that does not parse or is nested too deeply to handle, or a profile closure
past its size limit or out of memory, 3 = Undefined.  Only `profiles` and
the evaluation of a quantified sentence close the profiles, so only they
can fail on the closure.
"""

import functools
import json
import random
import sys

from .checker import (KXA, XA, QuantifierDomain, Truth, evaluate,
                      evaluate_with_witness, realizable_profiles,
                      stabilization_depth, weak_counterexample)
from .fuzz import random_qf_sentence, random_sentence
from .model import (InvalidStructure, enumerate_models, count_models,
                    generate_random, load_model, model_to_dict,
                    parse_model_class, swap_model, validate)
from .proofs import (check_proof, parse_system, proof_script_from_dict,
                     soundness_sweep)
from .syntax import (APrime, AStar, ParseError, free_vars, parse, pretty,
                     swap_props)


def _domain(args):
    base = XA if getattr(args, "domain", "KXA") == "XA" else KXA
    if getattr(args, "include_top", False):
        return QuantifierDomain(base.ops, include_top=True)
    return base


def _emit(args, payload, human):
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def _load(path):
    try:
        return load_model(path)
    except (OSError, json.JSONDecodeError, InvalidStructure) as exc:
        raise SystemExit(_fail(f"cannot load model {path}: {exc}"))


def _fail(message):
    print(f"error: {message}", file=sys.stderr)
    return 2


def _parse_formula(text, n_agents):
    try:
        f = parse(text, n_agents)
    except ParseError as exc:
        raise SystemExit(_fail(f"cannot parse formula: {exc}"))
    if free_vars(f):
        raise SystemExit(_fail("formula must be a sentence"))
    return f


def cmd_eval(args):
    m = _load(args.model)
    f = _parse_formula(args.formula, m.agents)
    domain = _domain(args)
    if args.world not in m.worlds:
        return _fail(f"unknown world {args.world!r}")
    value, witness = evaluate_with_witness(m, args.world, f, domain)
    payload = {
        "command": "eval", "model": args.model, "world": args.world,
        "formula": pretty(f), "value": str(value),
        "witness": pretty(witness) if witness is not None else None,
        "domain": args.domain, "include_top": args.include_top,
    }
    human = str(value)
    if witness is not None:
        human += f"  (witness: {pretty(witness)})"
    _emit(args, payload, human)
    return {Truth.TRUE: 0, Truth.FALSE: 1, Truth.UNDEFINED: 3}[value]


def cmd_valid(args):
    m = _load(args.model)
    f = _parse_formula(args.formula, m.agents)
    domain = _domain(args)
    world = weak_counterexample(m, f, domain)
    payload = {
        "command": "valid", "model": args.model, "formula": pretty(f),
        "valid": world is None, "counterexample": world,
        "domain": args.domain, "include_top": args.include_top,
    }
    _emit(args, payload,
          "valid" if world is None else f"counterexample: {world}")
    return 0 if world is None else 1


def cmd_profiles(args):
    m = _load(args.model)
    domain = _domain(args)
    profs = realizable_profiles(m, domain)
    payload = {
        "command": "profiles", "model": args.model, "domain": args.domain,
        "include_top": args.include_top,
        "stabilization_depth": stabilization_depth(m, domain),
        "profiles": [
            {"vocab": sorted(p.vocab),
             "truth": {w: p.truth[w] for w in sorted(p.truth)},
             "witness": pretty(p.witness)}
            for p in profs
        ],
    }
    lines = [f"{len(profs)} realizable profiles "
             f"(stabilization depth {payload['stabilization_depth']})"]
    for p in profs:
        tm = ", ".join(f"{w}={'T' if p.truth[w] else 'F'}"
                       for w in m.worlds if w in p.truth)
        lines.append(f"  {{{', '.join(sorted(p.vocab))}}}  [{tm}]  "
                     f"witness: {pretty(p.witness)}")
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_props(args):
    m = _load(args.model)
    rep = validate(m)
    payload = {"command": "props", "model": args.model,
               "report": rep.as_dict()}
    lines = []
    for name in ("reflexive", "transitive", "euclidean", "ka", "containment",
                 "la"):
        flag = getattr(rep, name)
        line = f"{name}: {'yes' if flag else 'no'}"
        if not flag:
            line += f"  (witness: {rep.witnesses[name]})"
        lines.append(line)
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_gen(args):
    cls = parse_model_class(args.model_class)
    props = [p for p in args.props.split(",") if p]
    out = []
    for k in range(args.count):
        m = generate_random(args.agents, args.worlds, props, cls,
                            seed=args.seed + k,
                            require_nonempty_awareness=args.require_nonempty_awareness)
        out.append(model_to_dict(m))
    text = "\n".join(json.dumps(d, sort_keys=True) for d in out)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_enum(args):
    cls = parse_model_class(args.model_class)
    props = [p for p in args.props.split(",") if p]
    if args.count_only:
        n = count_models(args.agents, args.max_worlds, props, cls,
                         constant_language=args.constant_language)
        _emit(args, {"command": "enum", "count": n}, str(n))
        return 0
    emitted = 0
    for m in enumerate_models(args.agents, args.max_worlds, props, cls,
                              constant_language=args.constant_language):
        print(json.dumps(model_to_dict(m), sort_keys=True))
        emitted += 1
        if args.limit and emitted >= args.limit:
            break
    return 0


def cmd_sweep(args):
    try:
        system = parse_system(args.system)
    except KeyError as exc:
        return _fail(str(exc))
    cls = parse_model_class(args.model_class)
    props = [p for p in args.props.split(",") if p]
    models = [
        generate_random(args.agents, args.worlds, props, cls,
                        seed=args.seed + k)
        for k in range(args.models)
    ]
    if args.enum_max_worlds:
        models.extend(enumerate_models(args.agents, args.enum_max_worlds,
                                       props, cls))
    report = soundness_sweep(system, models, seed=args.seed,
                             instances_per_schema=args.instances,
                             instance_depth=args.depth,
                             check_rules=args.check_rules)
    payload = {
        "command": "sweep", "system": args.system, "seed": args.seed,
        "models": report.models_checked,
        "instances": report.instances,
        "violations": [v.describe() for v in report.violations],
        "expected_rule_findings": [v.describe() for v in report.expected],
        "unexpected": [v.describe() for v in report.unexpected],
    }
    lines = [f"system {args.system}: {report.models_checked} models, "
             f"{sum(report.instances.values())} instances"]
    for name in sorted(report.instances):
        bad = [v for v in report.violations if v.name == name]
        status = "OK" if not bad else f"{len(bad)} violations"
        lines.append(f"  {name}: {status}")
    if report.expected:
        lines.append(f"expected rule findings: {len(report.expected)} "
                     "(finite proposition set)")
    lines.append(f"{len(report.unexpected)} violations")
    _emit(args, payload, "\n".join(lines))
    return 0 if report.ok() else 1


def cmd_prove(args):
    try:
        with open(args.script, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        script = proof_script_from_dict(
            data, data.get("agents") if isinstance(data, dict) else None)
    except (OSError, json.JSONDecodeError, ValueError, ParseError) as exc:
        return _fail(f"cannot load proof script: {exc}")
    try:
        outcome = check_proof(script, include_top=args.include_top)
    except KeyError as exc:
        return _fail(str(exc))
    payload = {
        "command": "prove", "script": args.script,
        "accepted": outcome.accepted, "line": outcome.line,
        "reason": outcome.reason,
    }
    _emit(args, payload, str(outcome))
    return 0 if outcome.accepted else 1


def cmd_swap_test(args):
    m = _load(args.model)
    if args.p not in m.props or args.p2 not in m.props:
        return _fail("both propositions must occur in the model")
    domain = _domain(args)
    m2 = swap_model(m, args.p, args.p2)
    rng = random.Random(args.seed)
    for k in range(args.formulas):
        f = random_sentence(rng, m.props, m.agents, quantifier_prob=0.25)
        g = swap_props(f, args.p, args.p2)
        for w in m.worlds:
            left = evaluate(m, w, f, domain)
            right = evaluate(m2, w, g, domain)
            if left is not right:
                payload = {"command": "swap-test", "ok": False,
                           "seed": args.seed, "world": w,
                           "formula": pretty(f), "left": str(left),
                           "right": str(right)}
                _emit(args, payload,
                      f"mismatch at {w}: {pretty(f)} is {left}, swapped "
                      f"form is {right}")
                return 1
    payload = {"command": "swap-test", "ok": True, "seed": args.seed,
               "formulas": args.formulas}
    _emit(args, payload, f"ok: {args.formulas} formulas agree at all worlds")
    return 0


def cmd_equiv_astar_aprime(args):
    m = _load(args.model)
    domain = _domain(args)
    rng = random.Random(args.seed)
    for k in range(args.formulas):
        body = random_qf_sentence(rng, m.props, m.agents, max_depth=2)
        for i in range(1, m.agents + 1):
            fa = AStar(i, body)
            fb = APrime(i, body)
            for w in m.worlds:
                left = evaluate(m, w, fa, domain)
                right = evaluate(m, w, fb, domain)
                if left is not right:
                    payload = {"command": "equiv-astar-aprime", "ok": False,
                               "seed": args.seed, "world": w, "agent": i,
                               "body": pretty(body), "astar": str(left),
                               "aprime": str(right)}
                    _emit(args, payload,
                          f"differ at {w} for agent {i} on {pretty(body)}: "
                          f"defined-everywhere reads {left}, "
                          f"knowledge-based reads {right}")
                    return 1
    payload = {"command": "equiv-astar-aprime", "ok": True,
               "seed": args.seed, "formulas": args.formulas}
    _emit(args, payload,
          f"ok: operators agree on {args.formulas} bodies at all worlds")
    return 0


def _add_common(p, domain=True):
    p.add_argument("--json", action="store_true", help="machine-readable output")
    if domain:
        p.add_argument("--domain", choices=("KXA", "XA"), default="KXA",
                       help="operator set of the quantifier domain")
        p.add_argument("--include-top", action="store_true",
                       help="let the constant `true` join the quantifier domain")


@functools.cache
def build_parser():
    """The argument parser, built, and argparse imported, once."""
    import argparse
    ap = argparse.ArgumentParser(
        prog="awarecheck",
        description="Model checking and proof checking for epistemic logics "
                    "of awareness with world-relative languages.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a sentence at a world")
    p.add_argument("model")
    p.add_argument("world")
    p.add_argument("formula")
    _add_common(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("valid", help="check weak validity in a model")
    p.add_argument("model")
    p.add_argument("formula")
    _add_common(p)
    p.set_defaults(fn=cmd_valid)

    p = sub.add_parser("profiles", help="list realizable truth profiles")
    p.add_argument("model")
    _add_common(p)
    p.set_defaults(fn=cmd_profiles)

    p = sub.add_parser("props", help="report structural properties")
    p.add_argument("model")
    _add_common(p, domain=False)
    p.set_defaults(fn=cmd_props)

    p = sub.add_parser("gen", help="generate random structures")
    p.add_argument("--agents", type=int, default=1)
    p.add_argument("--worlds", type=int, default=3)
    p.add_argument("--props", default="p,q")
    p.add_argument("--class", dest="model_class", default="")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--require-nonempty-awareness", action="store_true")
    p.add_argument("--out")
    _add_common(p, domain=False)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("enum", help="enumerate all structures within bounds")
    p.add_argument("--agents", type=int, default=1)
    p.add_argument("--max-worlds", type=int, default=2)
    p.add_argument("--props", default="p")
    p.add_argument("--class", dest="model_class", default="")
    p.add_argument("--constant-language", action="store_true")
    p.add_argument("--limit", type=int, default=0)
    p.add_argument("--count-only", action="store_true")
    _add_common(p, domain=False)
    p.set_defaults(fn=cmd_enum)

    p = sub.add_parser("sweep", help="soundness sweep of an axiom system")
    p.add_argument("system")
    p.add_argument("--class", dest="model_class", default="r,t,e")
    p.add_argument("--models", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--agents", type=int, default=1)
    p.add_argument("--worlds", type=int, default=3)
    p.add_argument("--props", default="p,q")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--instances", type=int, default=6)
    p.add_argument("--enum-max-worlds", type=int, default=0)
    p.add_argument("--check-rules", action="store_true")
    _add_common(p, domain=False)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("prove", help="check a Hilbert proof script")
    p.add_argument("script")
    p.add_argument("--include-top", action="store_true")
    _add_common(p, domain=False)
    p.set_defaults(fn=cmd_prove)

    p = sub.add_parser("swap-test",
                       help="verify truth is invariant under a label swap")
    p.add_argument("model")
    p.add_argument("p")
    p.add_argument("p2")
    p.add_argument("--formulas", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(fn=cmd_swap_test)

    p = sub.add_parser("equiv-astar-aprime",
                       help="compare the two defined awareness operators")
    p.add_argument("model")
    p.add_argument("--formulas", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(fn=cmd_equiv_astar_aprime)

    return ap


# options that count or bound something, none of which may be negative
_COUNTS = ("count", "models", "instances", "depth", "limit", "max_worlds",
           "enum_max_worlds", "formulas")


def main(argv=None):
    args = build_parser().parse_args(argv)
    bad = [name for name in _COUNTS if getattr(args, name, 0) < 0]
    if bad:
        return _fail(f"--{bad[0].replace('_', '-')} must not be negative")
    try:
        code = args.fn(args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except RecursionError:
        # a formula too deep for the recursive code past the parser
        code = _fail("formula nested too deeply")
    except MemoryError as exc:
        code = _fail(f"out of memory: {exc}")
    except (RuntimeError, ValueError) as exc:
        # the profile closure's size limit; arguments the model builders
        # refuse
        code = _fail(str(exc))
    return code


if __name__ == "__main__":
    sys.exit(main())
