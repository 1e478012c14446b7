import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awarecheck import syntax
from awarecheck.fuzz import random_formula, random_sentence
from awarecheck.syntax import (TOP, A, And, APrime, AStar, Exists, Forall,
                               Iff, Implies, K, Not, Or, ParseError, Prop,
                               Var, X, free_vars, is_quantifier_free,
                               is_sentence, map_props, parse, pretty,
                               subformulas, subst_prop, subst_var,
                               swap_props, vocabulary)

p, q = Prop("p"), Prop("q")


def test_parse_examples():
    assert parse("K1 (p & !q)", 1) == K(1, And(p, Not(q)))
    assert parse("forall #x . A1 #x", 1) == Forall("x", A(1, Var("x")))
    assert parse("Astar1 p", 1) == K(1, Not(And(Not(p), Not(Not(p)))))


def test_parse_precedence():
    # unary > & > | > -> (right assoc) > <->
    assert parse("!p & q") == And(Not(p), q)
    assert parse("p & q | p") == Or(And(p, q), p)
    assert parse("p -> q -> p") == Implies(p, Implies(q, p))
    assert parse("p | q <-> q") == Iff(Or(p, q), q)
    assert parse("K1 p & q") == And(K(1, p), q)
    # quantifier body extends maximally right
    assert parse("forall #x . A1 #x & q") == Forall("x", And(A(1, Var("x")), q))
    assert parse("p -> forall #x . A1 #x & q") == \
        Implies(p, Forall("x", And(A(1, Var("x")), q)))
    assert parse("exists #y . #y") == Exists("y", Var("y"))
    assert parse("true") == TOP


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("K1 (p &", 1)
    with pytest.raises(ParseError):
        parse("p @ q")
    with pytest.raises(ParseError):
        parse("K3 p", 2)
    with pytest.raises(ParseError) as err:
        parse("p & )")
    assert "position" in str(err.value)
    # nesting too deep for the recursive descent is a parse error
    for text in ("K1 " * 3000 + "p", "(" * 500 + "p" + ")" * 500):
        with pytest.raises(ParseError):
            parse(text, 1)


def test_desugar_has_no_sugar_nodes():
    for f in (AStar(2, And(p, q)), APrime(1, p), Exists("x", Var("x")),
              Iff(p, q)):
        assert all(type(g).__name__ in
                   {"Top", "Prop", "Var", "Not", "And", "K", "A", "X",
                    "Forall"} for g in _nodes(f))


def _nodes(f):
    out = [f]
    i = 0
    while i < len(out):
        g = out[i]
        i += 1
        for attr in ("body", "left", "right"):
            child = getattr(g, attr, None)
            if child is not None:
                out.append(child)
    return out


def test_aprime_shape():
    assert APrime(1, p) == Or(K(1, p), K(1, Not(K(1, p))))


def test_vocabulary():
    assert vocabulary(parse("A1 p & A1 q", 1)) == {"p", "q"}
    assert vocabulary(parse("forall #x . A1 #x", 1)) == frozenset()
    assert vocabulary(TOP) == frozenset()


def test_free_vars_and_classes():
    f = parse("forall #x . (A1 #x -> X1 #y)", 1)
    assert free_vars(f) == {"y"}
    g = parse("forall #x . A1 #x", 1)
    assert is_sentence(g) and not is_quantifier_free(g)
    h = parse("K1 p", 1)
    assert is_sentence(h) and is_quantifier_free(h)


def test_subst_var_examples():
    assert subst_var(A(1, Var("x")), "x", p) == A(1, p)
    g = parse("forall #x . A1 #x", 1)
    assert subst_var(g, "x", p) == g
    f = parse("A1 #x & (forall #x . X1 #x)", 2)
    got = subst_var(f, "x", K(2, q))
    assert got == parse("A1 (K2 q) & (forall #x . X1 #x)", 2)


def _reference_subst(f, x, psi):
    # test-local replacement, written independently of the library walk
    cls = type(f).__name__
    if cls == "Var":
        return psi if f.name == x else f
    if cls in ("Prop", "Top"):
        return f
    if cls == "Not":
        return Not(_reference_subst(f.body, x, psi))
    if cls == "And":
        return And(_reference_subst(f.left, x, psi),
                   _reference_subst(f.right, x, psi))
    if cls in ("K", "A", "X"):
        return type(f)(f.agent, _reference_subst(f.body, x, psi))
    if cls == "Forall":
        if f.var == x:
            return f
        return Forall(f.var, _reference_subst(f.body, x, psi))
    raise AssertionError(cls)


def test_subst_var_against_reference_on_printed_string():
    rng = random.Random(5)
    for _ in range(300):
        f = random_formula(rng, ("p", "q"), 2, max_depth=4,
                           quantifier_prob=0.3, scope=("x",))
        psi = random_formula(rng, ("p", "q"), 2, max_depth=2)
        reparsed = parse(pretty(f), 2)
        assert subst_var(f, "x", psi) == _reference_subst(reparsed, "x", psi)


def test_subst_var_rejects_bad_replacements():
    with pytest.raises(ValueError):
        subst_var(A(1, Var("x")), "x", Forall("y", A(1, Var("y"))))
    with pytest.raises(ValueError):
        subst_var(A(1, Var("x")), "x", Var("y"))


def test_subst_prop_example():
    f = parse("A1 p & A1 q -> forall #x . A1 #x", 1)
    assert subst_prop(f, "q", p) == \
        parse("A1 p & A1 p -> forall #x . A1 #x", 1)


def test_swap_props():
    assert swap_props(K(1, p), "p", "p2") == K(1, Prop("p2"))
    f = X(2, And(p, Prop("p2")))
    assert swap_props(swap_props(f, "p", "p2"), "p", "p2") == f


def test_roundtrip_bulk():
    rng = random.Random(7)
    for k in range(10_000):
        f = random_sentence(rng, ("p", "q", "r"), 3, max_depth=5,
                            quantifier_prob=0.25, allow_top=(k % 5 == 0))
        text = pretty(f)
        assert text == str(f) == _reference_pretty(f)
        assert parse(text, 3) is f


def test_vocab_subst_monotone():
    rng = random.Random(11)
    for _ in range(400):
        f = random_formula(rng, ("p", "q"), 2, max_depth=4,
                           quantifier_prob=0.3, scope=("x",))
        psi = random_formula(rng, ("q", "r"), 2, max_depth=2)
        got = vocabulary(subst_var(f, "x", psi))
        assert got <= vocabulary(f) | vocabulary(psi)
        if "x" in free_vars(f):
            assert got == vocabulary(f) | vocabulary(psi)
        else:
            assert subst_var(f, "x", psi) == f


@st.composite
def formulas(draw, depth=3):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return random_sentence(rng, ("p", "q"), 2, max_depth=depth,
                           quantifier_prob=0.25)


@given(formulas())
@settings(max_examples=200, deadline=None)
def test_roundtrip_property(f):
    assert parse(pretty(f), 2) == f


@given(formulas(), st.sampled_from(["p", "q"]), st.sampled_from(["p", "q"]))
@settings(max_examples=150, deadline=None)
def test_swap_involution_property(f, a, b):
    if a == b:
        return
    assert swap_props(swap_props(f, a, b), a, b) == f


def test_swap_commutes_with_subst_var_when_disjoint():
    rng = random.Random(13)
    for _ in range(200):
        f = random_formula(rng, ("p", "p2"), 2, max_depth=3, scope=("x",))
        psi = random_formula(rng, ("r", "s"), 2, max_depth=2)
        left = swap_props(subst_var(f, "x", psi), "p", "p2")
        right = subst_var(swap_props(f, "p", "p2"), "x", psi)
        assert left == right


def test_map_props_formula_values():
    f = parse("A1 q & K1 q", 1)
    assert map_props(f, {"q": Var("x")}) == \
        And(A(1, Var("x")), K(1, Var("x")))


# --- interning --------------------------------------------------------------

def _reference_pretty(f):
    # test-local printer, node by node as the grammar reads
    cls = type(f).__name__
    if cls == "Top":
        return "true"
    if cls in ("Prop", "Var"):
        return ("#" if cls == "Var" else "") + f.name
    if cls == "Forall":
        return f"forall #{f.var} . {_reference_pretty(f.body)}"
    if cls == "And":
        left, right = _reference_pretty(f.left), _reference_pretty(f.right)
        if type(f.left).__name__ == "Forall":
            left = f"({left})"
        if type(f.right).__name__ in ("And", "Forall"):
            right = f"({right})"
        return f"{left} & {right}"
    body = _reference_pretty(f.body)
    if type(f.body).__name__ in ("And", "Forall"):
        body = f"({body})"
    return "!" + body if cls == "Not" else f"{cls}{f.agent} {body}"


def test_equal_formulas_are_one_node():
    f = And(K(1, Prop("p")), Forall("x", A(2, Var("x"))))
    g = parse("K1 p & (forall #x . A2 #x)", 2)
    assert f is g and f == g and hash(f) == hash(g)
    assert f != And(K(1, Prop("p")), Forall("y", A(2, Var("y"))))
    assert syntax.Top() is TOP
    assert repr(f) == "And(K(1, Prop('p')), Forall('x', A(2, Var('x'))))"
    assert f.vocab == {"p"} and f.fvars == frozenset()
    assert A(2, Var("x")).fvars == {"x"}
    with pytest.raises(AttributeError):
        f.left = TOP
    with pytest.raises(AttributeError):
        del f.left
    assert f.left is K(1, Prop("p"))


def test_an_agent_is_an_exact_int_or_a_str():
    # interning keys on field values and True == 1 == 1.0, so an agent of
    # another type would share a node with agent 1 and print as itself
    p = Prop("p")
    for op in (K, A, X):
        for bad in (True, False, 1.0, None):
            with pytest.raises(TypeError, match="agent must be an int"):
                op(bad, p)
    f = parse("K1 p", 1)
    assert f is K(1, p) and type(f.agent) is int and pretty(f) == "K1 p"
    assert K("i", p).agent == "i"  # a schema pattern's agent


def test_substitution_returns_existing_nodes():
    f = parse("K1 p & forall #x . A1 #x", 1)
    assert subst_var(f, "x", q) is f
    assert map_props(f, {"q": "r"}) is f
    g = parse("K1 #x & A1 p", 1)
    assert subst_var(g, "x", q).right is g.right


def test_copy_and_pickle_return_the_interned_node():
    import copy
    import pickle

    from awarecheck.proofs import MetaF
    for f in (parse("forall #x . K1 (#x & !p)", 1), TOP, MetaF("phi"),
              Implies(MetaF("phi"), X(1, Var("y")))):
        assert copy.copy(f) is f
        assert copy.deepcopy(f) is f
        assert copy.deepcopy([f, f])[1] is f
        assert pickle.loads(pickle.dumps(f)) is f


def test_threads_building_the_same_sentences_get_one_node_each():
    import sys
    import threading

    def race(props):
        barrier = threading.Barrier(8)
        built = [None] * 8

        def build(k):
            rng = random.Random(23)
            barrier.wait(timeout=60)
            built[k] = [random_sentence(rng, props, 2, max_depth=5,
                                        quantifier_prob=0.25)
                        for _ in range(1000)]

        threads = [threading.Thread(target=build, args=(k,))
                   for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert all(sentences is not None for sentences in built)
        return built

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # fresh propositions each round, so that the threads race to insert
        rounds = [race((f"t{k}", "q")) for k in range(3)]
    finally:
        sys.setswitchinterval(interval)
    for built in rounds:
        for sentences in built[1:]:
            assert all(f is g for f, g in zip(built[0], sentences))
        # and every subformula is the node its text parses to
        for f in built[0]:
            for g in subformulas(f):
                assert parse(pretty(g), 2) is g


def test_dead_table_entry_is_replaced():
    class Gone:
        pass

    key = (Prop, "dead_entry")
    syntax._TABLE[key] = weakref.ref(Gone())  # dead at once
    node = Prop("dead_entry")
    assert node.name == "dead_entry" and node.vocab == {"dead_entry"}
    assert syntax._TABLE[key]() is node and Prop("dead_entry") is node
    del node
    gc.collect()
    assert key not in syntax._TABLE


def test_deep_formula_through_the_api():
    # 10^4 nested `K1 !`, built without recursion: hashing, vocabulary, free
    # variables and sentencehood read node fields, and the chain leaves the
    # table when dropped
    gc.collect()
    before = len(syntax._TABLE)
    f = Prop("deep")
    for _ in range(10_000):
        f = K(1, Not(f))
    assert hash(f) == hash(K(1, Not(f.body.body)))
    assert free_vars(f) == frozenset() and vocabulary(f) == {"deep"}
    assert is_sentence(f)
    assert len(syntax._TABLE) == before + 20_001
    del f
    gc.collect()
    assert len(syntax._TABLE) == before
