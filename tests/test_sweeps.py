import random

import pytest

from awarecheck import checker, kernel
from awarecheck._kernel_py import Kernel
from awarecheck.checker import (Corpus, _context, weak_counterexample,
                                weakly_valid)
from awarecheck.model import (AwarenessStructure, enumerate_models,
                              generate_random, load_model)
from awarecheck.proofs import (SYSTEMS, instantiate, parse_system,
                               schema_instances, search_schema_violation,
                               soundness_sweep)
from awarecheck.syntax import (A, And, Implies, K, Not, Prop, Var, X, parse,
                               pretty)


def rte_models(n, props=("p", "q"), worlds=3, agents=1, start=0):
    return [generate_random(agents, worlds, props, frozenset("rte"),
                            seed=start + k) for k in range(n)]


def class_models(cls, n, props=("p", "q"), worlds=3, agents=1, start=0):
    return [generate_random(agents, worlds, props, frozenset(cls),
                            seed=start + k) for k in range(n)]


def test_sweep_theorem2_quick():
    report = soundness_sweep("AXe_XAforall+TX4X5X", rte_models(60), seed=1,
                             instances_per_schema=4, instance_depth=3)
    assert report.ok(), [v.describe() for v in report.unexpected]
    assert report.models_checked == 60


def test_sweep_theorem3a_quick():
    report = soundness_sweep("AXe_KXAAstarforall+T45star", rte_models(60),
                             seed=2, instances_per_schema=4)
    assert report.ok(), [v.describe() for v in report.unexpected]


def test_sweep_theorem3c_quick():
    report = soundness_sweep("AXe_KAstar+T45star", rte_models(60), seed=3,
                             instances_per_schema=4)
    assert report.ok(), [v.describe() for v in report.unexpected]


def test_negative_suite_in_rte():
    # the K-language principles that break once languages vary by world
    models = list(enumerate_models(1, 2, ["p", "q"], frozenset("rte")))
    probe_p = [Prop("p")]
    for name in ("Barcan", "NKA", "5"):
        hit = search_schema_violation(name, models, seed=4,
                                      extra_instances=[
                                          instantiate(name, b)
                                          for b in _bindings(name)])
        assert hit is not None, name
        assert weak_counterexample(hit.model, hit.formula) == hit.world


def _bindings(name):
    if name == "Barcan":
        return [{"i": 1, "?x": "x", "phi": A(1, Var("x"))},
                {"i": 1, "?x": "x", "phi": Var("x")}]
    return [{"i": 1, "phi": Prop("p")}, {"i": 1, "phi": Prop("q")}]


def test_gen_k_fails_per_model_found_by_search():
    # search the rte enumeration for a model where some premise is weakly
    # valid but its K-generalization is not
    found = None
    candidates = [Prop("p"), Prop("q"), Not(Prop("p"))]
    for m in enumerate_models(1, 2, ["p", "q"], frozenset("rte")):
        for phi in candidates:
            if weakly_valid(m, phi):
                world = weak_counterexample(m, K(1, phi))
                if world is not None:
                    found = (m, phi, world)
                    break
        if found:
            break
    assert found is not None
    m, phi, world = found
    assert weakly_valid(m, phi) and not weakly_valid(m, K(1, phi))


def test_mp_expected_finding_finite_props():
    # the two-proposition construction: both premises never false, the
    # conclusion false at a world where they are undefined
    m = AwarenessStructure(
        1, ["p", "q"], ["u", "v"],
        {"u": {"p", "q"}, "v": {"p"}}, {"u": set(), "v": set()},
        {1: [("u", "u"), ("v", "v")]},
        {1: {"u": {"p", "q"}, "v": set()}})
    phi = parse("A1 p & A1 q", 1)
    conc = parse("forall #x . A1 #x", 1)
    imp = Implies(phi, conc)
    assert weakly_valid(m, phi)
    assert weakly_valid(m, imp)
    assert weak_counterexample(m, conc) == "v"


def test_sweep_reports_mp_finding_as_expected():
    m = AwarenessStructure(
        1, ["p", "q"], ["u", "v"],
        {"u": {"p", "q"}, "v": {"p"}}, {"u": set(), "v": set()},
        {1: [("u", "u"), ("v", "v")]},
        {1: {"u": {"p", "q"}, "v": set()}})
    report = soundness_sweep("AXe_KXAAstarforall+T45star", [m], seed=5,
                             instances_per_schema=3, check_rules=True,
                             rule_samples=10)
    # MP fails on this structure, but the sweep cannot see it: premises
    # drawn from its weakly valid instances give a weakly valid conclusion,
    # so MP is neither drawn nor expected; schemas stay clean, and any rule
    # finding is an expected Gen_forall one
    assert report.expected_rules == ("Gen_forall",)
    assert not report.violations and report.ok()
    assert all(v.name == "Gen_forall" for v in report.rule_findings)


def test_rule_preservation_gen_x_gen_star():
    # hard per-model preservation for the awareness-guarded rules
    models = rte_models(25) + class_models("", 25, start=100)
    rng = random.Random(6)
    report = soundness_sweep("AXe_KXAAstarforall+T45star", models, rng=rng,
                             instances_per_schema=3, check_rules=True,
                             rule_samples=3)
    hard = [v for v in report.rule_findings if v.name != "Gen_forall"]
    assert hard == [], [v.describe() for v in hard]


def test_prop3_boundaries_quick():
    # XA_star: valid on transitive samples, fails on a chain
    for m in class_models("t", 30):
        assert weak_counterexample(
            m, instantiate("XA_star", {"i": 1, "phi": Prop("p")})) is None
    chain = AwarenessStructure(
        1, ["p", "q"], ["s", "t", "u"],
        {"s": {"p"}, "t": {"p"}, "u": {"q"}},
        {"s": {"p"}, "t": {"p"}, "u": set()},
        {1: [("s", "t"), ("t", "u")]},
        {1: {"s": set(), "t": set(), "u": set()}})
    assert weak_counterexample(
        chain, instantiate("XA_star", {"i": 1, "phi": Prop("p")})) == "s"
    # 5_star: valid on euclidean samples, fails on a non-euclidean chain
    # where the proposition flips between the two hops
    for m in class_models("e", 30, start=50):
        assert weak_counterexample(
            m, instantiate("5_star", {"i": 1, "phi": Prop("p")})) is None
    flip = AwarenessStructure(
        1, ["p"], ["s", "t", "u"],
        {"s": {"p"}, "t": {"p"}, "u": {"p"}},
        {"s": {"p"}, "t": set(), "u": {"p"}},
        {1: [("s", "t"), ("t", "u")]},
        {1: {"s": set(), "t": set(), "u": set()}})
    assert weak_counterexample(
        flip, instantiate("5_star", {"i": 1, "phi": Prop("p")})) == "s"
    # FA_star / Barcan_star: valid on r+e samples, fail without reflexivity
    for m in class_models("re", 30, start=80):
        assert weak_counterexample(
            m, instantiate("FA_star", {"i": 1, "?x": "x"})) is None
        assert weak_counterexample(
            m, instantiate("Barcan_star",
                           {"i": 1, "?x": "x", "phi": Var("x")})) is None
    drop = AwarenessStructure(
        1, ["p", "q"], ["s", "t"], {"s": {"p"}, "t": {"q"}},
        {"s": {"p"}, "t": set()}, {1: [("s", "t")]},
        {1: {"s": set(), "t": set()}})
    assert weak_counterexample(
        drop, instantiate("FA_star", {"i": 1, "?x": "x"})) == "s"
    assert weak_counterexample(
        drop, instantiate("Barcan_star",
                          {"i": 1, "?x": "x", "phi": Var("x")})) == "s"


def test_astar_aprime_divergence_model():
    m = AwarenessStructure(
        1, ["p"], ["s", "t"], {"s": {"p"}, "t": {"p"}},
        {"s": {"p"}, "t": set()}, {1: [("s", "t")]},
        {1: {"s": set(), "t": set()}})
    from awarecheck.checker import evaluate
    from awarecheck.syntax import APrime, AStar
    assert evaluate(m, "s", AStar(1, Prop("p"))).value == "True"
    assert evaluate(m, "s", APrime(1, Prop("p"))).value == "False"


def _sweep_corpus(system, seed, per_schema, props=("p", "q"), agents=1):
    """(schema, instance) pairs in the order soundness_sweep checks them."""
    rng = random.Random(seed)
    return [(name, inst) for name in sorted(system.schemas)
            for inst in schema_instances(rng, name, props, agents, system,
                                         per_schema, 3)]


@pytest.mark.parametrize("pure", [False, True])
def test_batched_sweep_matches_one_sentence_path(pure, monkeypatch):
    # one kernel call per structure flags exactly the instances that
    # weak_counterexample finds False one by one, on rte structures, on
    # structures of no class (where T, 4 and 5_star fail) and on one with
    # another proposition order
    if pure:
        monkeypatch.setattr(checker, "NativeKernel", Kernel)
    backend = Kernel if pure or kernel.BACKEND != "c" else \
        kernel.NativeKernel
    system = parse_system("AXe_KXAAstarforall+T45star")
    domain = system.domain
    named = _sweep_corpus(system, 8, 4)
    corpus = Corpus(inst for _, inst in named)
    models = rte_models(30) + class_models("", 30, start=200) + \
        [generate_random(1, 3, ("q", "p"), frozenset(), seed=5)]
    expected, failed = [], set()
    for m in models:
        masks = corpus.false_masks(m, domain)
        assert type(_context(m, domain)) is backend
        assert len(masks) == len(named)
        for (name, inst), mask in zip(named, masks):
            world = weak_counterexample(m, inst, domain)
            assert world == (m.worlds[(mask & -mask).bit_length() - 1]
                             if mask else None), (name, inst)
            if world is not None:
                expected.append((name, m, inst, world))
                failed.add(name)
    assert {"T", "4", "5_star"} <= failed

    report = soundness_sweep(system, models, seed=8, instances_per_schema=4)
    assert [(v.name, v.model, v.formula, v.world)
            for v in report.violations] == expected

    # the search's one corpus per structure finds what a one-by-one loop
    # over the same draws finds first
    for name in ("T", "4", "5_star", "K"):
        hit = search_schema_violation(name, models, seed=9, system=system)
        rng, first = random.Random(9), None
        for m in models:
            for inst in schema_instances(rng, name, m.props, m.agents,
                                         system, 6, 2):
                world = weak_counterexample(m, inst, domain)
                if world is not None:
                    first = first or (m, inst, world)
        assert (hit and (hit.model, hit.formula, hit.world)) == first, name

    # a structure without q: the sweep raises what weak_counterexample
    # raises for the first instance that mentions q
    lacking = generate_random(1, 2, ("p",), frozenset("rte"), seed=1)
    with pytest.raises(ValueError) as alone:
        for _, inst in named:
            weak_counterexample(lacking, inst, domain)
    with pytest.raises(ValueError) as swept:
        soundness_sweep(system, models[:2] + [lacking], seed=8,
                        instances_per_schema=4)
    assert str(swept.value) == str(alone.value)


def test_corpus_raises_what_the_first_bad_sentence_raises():
    # K2 p is checked before the missing r of the next sentence, as
    # weak_counterexample checks it alone
    m = load_model("fixtures/M_barcan.json")
    with pytest.raises(ValueError, match="unknown agent 2"):
        weak_counterexample(m, K(2, Prop("p")))
    with pytest.raises(ValueError, match="unknown agent 2"):
        Corpus([K(2, Prop("p")), Prop("r")]).false_masks(m)
    with pytest.raises(ValueError, match=r"unknown propositions \['r'\]"):
        Corpus([K(1, Prop("p")), Prop("r"), K(2, Prop("p"))]).false_masks(m)
