import gc
import itertools
import random
import weakref

import pytest

from awarecheck.checker import (K_ONLY, KXA, XA, Corpus, OracleBudgetExceeded,
                                QuantifierDomain, Truth, _compile_program,
                                _context, _quantifier_witness, _truth_at,
                                brute_force_forall, direct_evaluate,
                                evaluate, evaluate_hr,
                                evaluate_with_witness, forall_witness,
                                qf_sentences, realizable_profiles,
                                satisfying_worlds, stabilization_depth,
                                weak_counterexample, weakly_valid)
from awarecheck.fuzz import random_open_formula, random_sentence
from awarecheck.model import (AwarenessStructure, enumerate_models,
                              generate_random)
from awarecheck.syntax import (A, And, AStar, Exists, Forall, K, Not, Prop,
                               Var, X, parse, pretty, subst_var, vocabulary)

from test_model import barcan_model, unc_model

T, F, U = Truth.TRUE, Truth.FALSE, Truth.UNDEFINED

PSI_UNCERTAIN = "!X1 !(forall #x . A1 #x) & !X1 (forall #x . A1 #x)"


def test_barcan_fixture_claims():
    m = barcan_model()
    assert evaluate(m, "s", parse("forall #x . X1 A1 #x", 1)) is T
    assert evaluate(m, "s", parse("X1 (forall #x . A1 #x)", 1)) is F
    assert evaluate(m, "t", parse("!(forall #x . A1 #x)", 1)) is T
    assert evaluate(m, "t", parse("X1 !(forall #x . A1 #x)", 1)) is F


def test_undefined_iff_vocabulary_escapes_language():
    m = barcan_model()
    assert evaluate(m, "s", parse("K1 q", 1)) is U
    assert evaluate(m, "t", parse("K1 q", 1)) is not U


def test_uncertainty_formula_on_unc_fixture():
    m = unc_model()
    psi = parse(PSI_UNCERTAIN, 1)
    assert evaluate(m, "s", psi) is T
    # confirmed by the substitution oracle at depth 2
    assert direct_evaluate(m, "s", psi, forall_depth=2) is T


def test_evaluate_rejects_bad_input():
    m = barcan_model()
    with pytest.raises(ValueError):
        evaluate(m, "s", A(1, Var("x")))
    with pytest.raises(ValueError):
        evaluate(m, "s", parse("K2 p", 2))
    with pytest.raises(ValueError):
        evaluate(m, "nowhere", parse("p", 1))
    with pytest.raises(ValueError):
        evaluate(m, "s", parse("r", 1))


def test_definedness_fuzz():
    rng = random.Random(21)
    for seed in range(25):
        m = generate_random(2, 3, ["p", "q"], frozenset(), seed=seed)
        for _ in range(20):
            f = random_sentence(rng, ("p", "q"), 2, quantifier_prob=0.2)
            for w in m.worlds:
                undefined = not vocabulary(f) <= m.lang[w]
                assert (evaluate(m, w, f) is U) == undefined


def test_exists_is_negated_forall():
    body = A(1, Var("x"))
    assert Exists("x", body) == Not(Forall("x", Not(body)))


def test_profiles_soundness_via_direct_eval():
    for seed in range(15):
        m = generate_random(1, 3, ["p", "q"], frozenset(), seed=seed)
        for prof in realizable_profiles(m):
            assert vocabulary(prof.witness) == prof.vocab
            for w, expect in prof.truth.items():
                got = direct_evaluate(m, w, prof.witness)
                assert got is (T if expect else F)
            for w in m.worlds:
                if w not in prof.truth:
                    assert direct_evaluate(m, w, prof.witness) is U


def test_profiles_on_single_world_model():
    m = AwarenessStructure(1, ["p"], ["s"], {"s": {"p"}}, {"s": {"p"}},
                           {1: [("s", "s")]}, {1: {"s": {"p"}}})
    profs = realizable_profiles(m)
    got = {(tuple(sorted(p.vocab)), tuple(sorted(p.truth.items())))
           for p in profs}
    assert got == {(("p",), (("s", True),)), (("p",), (("s", False),))}
    names = {pretty(p.witness) for p in profs}
    assert names == {"p", "!p"}


def test_profiles_include_top_seed():
    from awarecheck.checker import QuantifierDomain
    m = barcan_model()
    dom = QuantifierDomain(include_top=True)
    profs = realizable_profiles(m, dom)
    tops = [p for p in profs if p.vocab == frozenset()]
    assert len(tops) >= 1
    assert tops[0].truth == {"s": True, "t": True}
    assert pretty(tops[0].witness) == "true"


def test_barcan_q_profiles():
    m = barcan_model()
    q_profiles = [p for p in realizable_profiles(m)
                  if p.vocab == frozenset(("q",))]
    truths = {tuple(sorted(p.truth.items())) for p in q_profiles}
    assert truths == {(("t", True),), (("t", False),)}


def test_profile_count_bound_and_stabilization():
    # closure size <= 2^|props| * 2^|worlds|; fixpoint realized by depth <= 6
    for seed in range(20):
        m = generate_random(1, 3, ["p", "q"], frozenset(), seed=seed)
        profs = realizable_profiles(m)
        assert len(profs) <= (2 ** 2) * (2 ** 3)
        assert stabilization_depth(m) <= 6
    for m in itertools.islice(enumerate_models(1, 2, ["p", "q"]), 0, 3000, 7):
        assert stabilization_depth(m) <= 6


def test_profile_fixpoint_matches_depth_enumeration():
    # profiles realized by explicitly enumerated sentences equal the fixpoint
    # once the depth reaches the stabilization depth
    cases = [(generate_random(1, 3, ["p"], frozenset(), seed=s), 3)
             for s in range(4)]
    cases += [(generate_random(1, 2, ["p", "q"], frozenset(), seed=s), 2)
              for s in range(6)]
    checked = 0
    for m, depth in cases:
        if stabilization_depth(m) > depth:
            continue
        cache = {}
        expected = set()
        for psi in qf_sentences(m.props, 1, KXA, depth):
            verdicts = []
            for w in m.worlds:
                v = direct_evaluate(m, w, psi, memo=cache)
                if v is not U:
                    verdicts.append((w, v is T))
            expected.add((vocabulary(psi), tuple(sorted(verdicts))))
        got = {(p.vocab, tuple(sorted(p.truth.items())))
               for p in realizable_profiles(m)}
        assert got == expected
        checked += 1
    assert checked >= 4


def test_context_lemma_on_enumerated_models():
    # two sentences with the same (vocabulary, truth profile) are
    # interchangeable in every context
    rng = random.Random(17)
    models = list(itertools.islice(enumerate_models(1, 2, ["p", "q"]),
                                   0, 4000, 97))
    for m in models:
        groups = {}
        for psi in qf_sentences(m.props, 1, KXA, 2):
            profile = []
            for w in m.worlds:
                v = direct_evaluate(m, w, psi)
                if v is not U:
                    profile.append((w, v is T))
            groups.setdefault((vocabulary(psi), tuple(profile)),
                              []).append(psi)
        pairs = [(g[0], rng.choice(g[1:])) for g in groups.values()
                 if len(g) > 1]
        for psi1, psi2 in pairs[:6]:
            ctx = random_open_formula(rng, m.props, 1, "x", max_depth=3,
                                      quantifier_prob=0.25)
            f1 = subst_var(ctx, "x", psi1)
            f2 = subst_var(ctx, "x", psi2)
            for w in m.worlds:
                assert evaluate(m, w, f1) is evaluate(m, w, f2)


def test_weak_validity_examples():
    excluded_middle = parse("forall #x . (#x | !#x)", 1)
    for seed in range(20):
        m = generate_random(1, 3, ["p", "q"], frozenset(), seed=seed)
        assert weakly_valid(m, excluded_middle)
    # T instance fails on a non-reflexive structure
    m = AwarenessStructure(
        1, ["p"], ["s", "t"], {"s": {"p"}, "t": {"p"}},
        {"s": set(), "t": {"p"}}, {1: [("s", "t")]},
        {1: {"s": set(), "t": set()}})
    assert weak_counterexample(m, parse("K1 p -> p", 1)) == "s"


def test_finite_prop_substitution_failure_shape():
    phi = parse("A1 p & A1 q -> forall #x . A1 #x", 1)
    inst = parse("A1 p & A1 p -> forall #x . A1 #x", 1)
    for m in enumerate_models(1, 2, ["p", "q"]):
        assert weakly_valid(m, phi)
    bad = AwarenessStructure(
        1, ["p", "q"], ["s"], {"s": {"p", "q"}}, {"s": set()}, {1: []},
        {1: {"s": {"p"}}})
    assert weak_counterexample(bad, inst) == "s"


def test_forall_witness_closed_loop():
    m = barcan_model()
    f = parse("forall #x . A1 #x", 1)
    w = forall_witness(m, "t", f)
    assert w is not None
    inst = subst_var(f.body, f.var, w)
    assert evaluate(m, "t", inst) is F
    # exists-witness on the desugared form
    g = parse("exists #x . !A1 #x", 1)
    assert evaluate(m, "t", g) is T
    w2 = forall_witness(m, "t", g)
    inst2 = subst_var(Not(A(1, Var("x"))), "x", w2)
    assert evaluate(m, "t", inst2) is T


def test_nested_quantifier_witness():
    m = barcan_model()
    # the quantifier fails at the successor t; the explanation surfaces
    w = forall_witness(m, "s", parse("X1 (forall #x . A1 #x)", 1))
    assert pretty(w) == "q"
    w = forall_witness(m, "t", parse("X1 !(forall #x . A1 #x)", 1))
    assert w is None  # fails because the negation is false at s, no witness
    w = forall_witness(m, "s", parse("p & K1 (forall #x . A1 #x)", 1))
    assert pretty(w) == "q"


def test_la_makes_awareness_and_definedness_operators_agree():
    # wherever every unaware proposition is missing from some considered
    # world's language, A_i p holds exactly when p is defined at all
    # considered worlds
    from awarecheck.model import validate
    checked = 0
    for seed in range(120):
        m = generate_random(1, 3, ["p", "q"], frozenset(), seed=seed)
        if not validate(m).la:
            continue
        for w in m.worlds:
            for p in m.props:
                astar = evaluate(m, w, AStar(1, Prop(p)))
                plain = evaluate(m, w, A(1, Prop(p)))
                assert astar is plain
                checked += 1
    assert checked > 20


def test_brute_force_forall_examples():
    m = barcan_model()
    probe = brute_force_forall(m, "s", A(1, Var("x")), "x", 1)
    assert probe.value is T and probe.stabilized
    probe = brute_force_forall(m, "t", A(1, Var("x")), "x", 1)
    assert probe.value is F and probe.stabilized
    assert pretty(probe.witness) == "q"
    with pytest.raises(ValueError):
        brute_force_forall(m, "s", A(1, Prop("p")), "x", 1)


def test_brute_force_budget():
    m = barcan_model()
    with pytest.raises(OracleBudgetExceeded):
        brute_force_forall(m, "t", A(1, Var("x")), "x", 4, cap=50)


def test_oracle_agrees_with_profile_forall():
    rng = random.Random(23)
    checked = 0
    for seed in range(30):
        m = generate_random(1, 3, ["p", "q"], frozenset(), seed=seed)
        memo = {}
        for _ in range(6):
            body = random_open_formula(rng, m.props, 1, "x", max_depth=2)
            for w in m.worlds:
                probe = brute_force_forall(m, w, body, "x", 2, memo=memo,
                                           cap=500_000)
                if not probe.stabilized and len(m.lang[w]) == 1:
                    probe = brute_force_forall(m, w, body, "x", 3, memo=memo,
                                               cap=500_000)
                if not probe.stabilized:
                    continue
                got = evaluate(m, w, Forall("x", body))
                assert got is probe.value, (seed, w, pretty(body))
                checked += 1
    assert checked > 200


def test_hr_agreement_on_constant_language_models():
    rng = random.Random(29)
    count = 0
    for m in itertools.islice(
            enumerate_models(1, 2, ["p", "q"], constant_language=True),
            0, 3000, 11):
        f = random_sentence(rng, m.props, 1, quantifier_prob=0.3)
        for w in m.worlds:
            three = evaluate(m, w, f)
            two = evaluate_hr(m, w, f)
            assert three is two
            count += 1
    assert count > 300


def test_hr_shadowed_quantifier():
    # the inner quantifier rebinds #y, so the body has the empty vocabulary
    # whatever the outer #y is bound to; the agent is unaware of q
    m = AwarenessStructure(1, ["p", "q"], ["w0"], {"w0": {"p", "q"}},
                           {"w0": set()}, {1: [("w0", "w0")]},
                           {1: {"w0": {"p"}}})
    f = parse("forall #y . A1 (forall #y . #y)", 1)
    assert evaluate(m, "w0", f) is T
    assert direct_evaluate(m, "w0", f) is T
    assert evaluate_hr(m, "w0", f) is T


def test_hr_weak_validity_equals_plain_validity():
    # with one global language the two validity notions coincide
    rng = random.Random(31)
    for seed in range(15):
        m = generate_random(1, 3, ["p", "q"], frozenset(), seed=seed)
        m = AwarenessStructure(
            1, m.props, m.worlds,
            {w: set(m.props) for w in m.worlds}, m.val, m.rel,
            {i: {w: m.aware[i][w] for w in m.worlds} for i in m.aware})
        f = random_sentence(rng, m.props, 1, quantifier_prob=0.2)
        assert weakly_valid(m, f) == \
            all(evaluate(m, w, f) is T for w in m.worlds)


def test_xa_domain_differs_from_kxa_where_expected():
    # without K, the domain sentences can only take Boolean combinations of
    # the seed valuations and the (awareness-based) A/X profiles; a K-chain
    # separates worlds those operators cannot
    m = AwarenessStructure(
        1, ["p"], ["u", "v", "w"],
        {"u": {"p"}, "v": {"p"}, "w": {"p"}},
        {"u": {"p"}, "v": set(), "w": set()},
        {1: [("v", "u"), ("w", "v")]},
        {1: {"u": set(), "v": set(), "w": set()}})
    kxa = {(p.vocab, tuple(sorted(p.truth.items())))
           for p in realizable_profiles(m, KXA)}
    xa = {(p.vocab, tuple(sorted(p.truth.items())))
          for p in realizable_profiles(m, XA)}
    assert xa < kxa
    assert (frozenset(("p",)),
            (("u", True), ("v", True), ("w", False))) in kxa - xa


def test_evaluated_sentences_are_not_retained():
    m = barcan_model()
    f = parse(PSI_UNCERTAIN, 1)
    evaluate(m, "s", f)
    weak_counterexample(m, f)
    direct_evaluate(m, "s", f)
    ref = weakref.ref(f)
    del f
    gc.collect()
    assert ref() is None


def test_equal_sentences_share_their_program_and_oracle_memo(monkeypatch):
    # one sentence parsed and one built through the API are the same node,
    # so the second compiles nothing and the oracle answers it from its memo
    from awarecheck import checker
    m = barcan_model()
    parsed = parse("!X1 !(forall #x . A1 #x) & K1 p", 1)
    built = And(Not(X(1, Not(Forall("x", A(1, Var("x")))))), K(1, Prop("p")))
    compiles, calls = [], []
    real_compile, real_direct = checker._compile_program, checker._direct
    monkeypatch.setattr(checker, "_compile_program", lambda *args:
                        compiles.append(args) or real_compile(*args))
    monkeypatch.setattr(checker, "_direct", lambda *args:
                        calls.append(args) or real_direct(*args))
    assert evaluate(m, "s", parsed) is evaluate(m, "s", built)
    assert len(compiles) == 1
    memo = {}
    first = direct_evaluate(m, "s", parsed, memo=memo)
    assert len(calls) > 1
    calls.clear()
    assert direct_evaluate(m, "s", built, memo=memo) is first
    assert len(calls) == 1 and calls[0][2] is built
    assert (built, m.worlds.index("s")) in memo["memo"]


def test_oracle_memo_is_kept_per_domain_and_depth():
    # a quantifier's brute-force value depends on the domain and the depth,
    # so one memo shared across them must not answer for another
    m = generate_random(1, 2, ("p", "q"), seed=27)
    f = parse("forall #y . #y", 1)
    memo = {}
    assert direct_evaluate(m, "w1", f, forall_depth=0, memo=memo) is T
    assert direct_evaluate(m, "w1", f, forall_depth=2, memo=memo) is F
    assert evaluate(m, "w1", f) is F
    m = generate_random(1, 2, ("p", "q"), seed=37)
    f = parse("forall #y . (#y | !K1 #y)", 1)
    memo = {}
    assert direct_evaluate(m, "w1", f, XA, 1, memo=memo) is T
    assert direct_evaluate(m, "w1", f, K_ONLY, 1, memo=memo) is F
    assert [evaluate(m, "w1", f, domain) for domain in (XA, K_ONLY)] == [T, F]


def test_memoization_consistency():
    # repeated evaluation through the cached context stays stable
    m = barcan_model()
    f = parse(PSI_UNCERTAIN, 1)
    first = [evaluate(m, w, f) for w in m.worlds]
    second = [evaluate(m, w, f) for w in m.worlds]
    assert first == second


def test_only_quantified_programs_close(monkeypatch, capsys):
    # a quantifier-free query reads no profile and closes nothing; a
    # quantified one closes once per (structure, domain), over vocabulary
    # classes, and a caller of the profiles themselves once more, in full
    from awarecheck import checker
    from awarecheck.cli import main
    calls = []
    real = checker.close_profiles
    monkeypatch.setattr(checker, "close_profiles", lambda k, domain, *mode:
                        calls.append((domain, *mode)) or real(k, domain,
                                                               *mode))
    m = generate_random(2, 4, ["p", "q"], frozenset(), seed=3)

    def ask(text, domain):
        f = parse(text, 2)
        for w in m.worlds:
            evaluate(m, w, f, domain)
            forall_witness(m, w, f, domain)
        satisfying_worlds(m, f, domain)
        weak_counterexample(m, f, domain)
        Corpus([f]).false_masks(m, domain)

    for domain in (KXA, XA):
        ask("K1 p & !A2 (p & q) | X1 true", domain)
    assert main(["eval", "fixtures/M_barcan.json", "s", "X1 p"]) == 0
    assert calls == []
    for domain in (KXA, XA):
        ask("forall #x . K1 (#x | !#x) & !A2 p", domain)
        ask("!(forall #y . X2 #y)", domain)
    assert calls == [(KXA, 1), (XA, 1)]
    realizable_profiles(m)
    stabilization_depth(m)
    ask("forall #x . A1 #x", KXA)
    assert calls == [(KXA, 1), (XA, 1), (KXA, 0)]
    assert main(["eval", "fixtures/M_barcan.json", "s",
                 "forall #x . X1 A1 #x"]) == 0
    assert len(calls) == 4 and calls[-1][1] == 1
    capsys.readouterr()


@pytest.mark.parametrize("pure", [False, True])
def test_full_closure_replaces_class_closure(monkeypatch, pure):
    # profiles read after quantified queries are those of a fresh structure,
    # not the class closure's, and the queries answer as before
    from awarecheck import checker
    from awarecheck._kernel_py import Kernel
    if pure:
        monkeypatch.setattr(checker, "NativeKernel", Kernel)

    def twin():
        # p and q lie in the same languages and awareness sets and are true
        # at the same worlds, so the class closure drops q's seed and every
        # later record index differs from the full closure's
        return AwarenessStructure(
            1, ["p", "q", "r"], ["s", "t"], dict.fromkeys("st", "pqr"),
            {"s": "pq", "t": "r"}, {1: [("s", "t"), ("t", "t")]},
            {1: dict.fromkeys("st", "pq")})

    fs = [parse(text, 1) for text in (
        "forall #x . (A1 #x -> K1 #x) & !(forall #y . X1 (#y | p))",
        "forall #x . A1 #x")]
    structures = [(twin(), twin())] + [
        tuple(generate_random(1, 6, ["p", "q", "r"], seed=seed)
              for _ in range(2)) for seed in range(6)]
    replaced = 0
    for m, fresh in structures:
        # the last program loaded is the first one asked again
        before = [[(evaluate(m, w, f), forall_witness(m, w, f))
                   for w in m.worlds] for f in fs]
        n_classes = len(_context(m, KXA).records)
        assert realizable_profiles(m) == realizable_profiles(fresh)
        replaced += len(_context(m, KXA).records) > n_classes
        assert stabilization_depth(m) == stabilization_depth(fresh)
        assert [[(evaluate(m, w, f), forall_witness(m, w, f))
                 for w in m.worlds] for f in fs[::-1]] == before[::-1]
    assert replaced >= 4


CORPUS = [  # repeated closed subformulas, one body under two binders,
            # shadowed variables and `true`
    "forall #x . A1 #x",
    "p & forall #x . A1 #x",
    "forall #y . A1 #y",
    "!(forall #x . A1 #x) | K1 (forall #x . A1 #x)",
    "forall #x . (#x & forall #x . !#x)",
    "forall #x . forall #y . (#x | K1 #y)",
    "forall #y . forall #x . (#x | K1 #y)",
    "true & K1 (p | q)",
    "K1 (p | q) -> forall #y . (true | #y)",
    "!K1 (forall #x . (A1 #x -> K1 #x)) & X1 q",
]


def test_corpus_program_shares_nodes():
    # one program for the corpus is smaller than its one-sentence programs
    # together, and every root answers as its sentence does alone
    sentences = [parse(text, 1) for text in CORPUS]
    pidx = {"p": 0, "q": 1}
    code, roots = _compile_program(sentences, pidx, 1)
    alone = [_compile_program([f], pidx, 1)[0] for f in sentences]
    assert len(code[0]) < sum(len(c[0]) for c in alone)
    assert code[-1] < sum(c[-1] for c in alone)
    with pytest.raises(ValueError, match="unknown agent 1"):
        _compile_program(sentences, pidx, 0)
    corpus = Corpus(sentences)
    domains = [KXA, XA, QuantifierDomain(include_top=True)]
    for seed in range(12):
        m = generate_random(1, 2 + seed % 3, ["p", "q"], frozenset(),
                            seed=seed)
        for domain in domains:
            ctx = _context(m, domain, code)
            out = ctx.kernel.run(code, roots)
            witnesses = [[_quantifier_witness(ctx, code, root, w)
                          for w in range(len(m.worlds))] for root in roots]
            assert corpus.false_masks(m, domain) == out[2::3]
            for k, f in enumerate(sentences):
                vocab, truth, bad = out[3 * k:3 * k + 3]
                assert [_truth_at(ctx, w, vocab, truth)
                        for w in range(len(m.worlds))] == \
                    [evaluate(m, w, f, domain) for w in m.worlds]
                world = weak_counterexample(m, f, domain)
                assert world == (m.worlds[(bad & -bad).bit_length() - 1]
                                 if bad else None)
                assert witnesses[k] == [
                    (evaluate(m, w, f, domain),
                     forall_witness(m, w, f, domain)) for w in m.worlds] == [
                    evaluate_with_witness(m, w, f, domain) for w in m.worlds]
