import copy
import itertools
import json
import os
import pickle
import random
import subprocess
import sys

import pytest

import awarecheck
from awarecheck.checker import evaluate, evaluate_hr
from awarecheck.fuzz import random_sentence
from awarecheck.model import (AwarenessStructure, InvalidStructure,
                              count_models, enumerate_models,
                              generate_random, load_model, model_from_dict,
                              model_to_dict, parse_model_class, rename_props,
                              swap_model, validate)
from awarecheck.syntax import map_props, parse, swap_props


def barcan_model():
    return AwarenessStructure(
        agents=1, props=["p", "q"], worlds=["s", "t"],
        lang={"s": {"p"}, "t": {"p", "q"}},
        val={"s": {"p"}, "t": {"p", "q"}},
        rel={1: [("s", "s"), ("s", "t"), ("t", "s"), ("t", "t")]},
        aware={1: {"s": {"p"}, "t": {"p"}}})


def unc_model():
    return AwarenessStructure(
        agents=1, props=["p", "q"], worlds=["s", "t1", "t2"],
        lang={"s": {"p"}, "t1": {"p"}, "t2": {"p", "q"}},
        val={"s": {"p"}, "t1": {"p"}, "t2": {"p", "q"}},
        rel={1: [("s", "t1"), ("s", "t2")]},
        aware={1: {"s": {"p"}, "t1": {"p"}, "t2": {"p"}}})


def test_validate_barcan_fixture():
    rep = validate(barcan_model())
    assert rep.reflexive and rep.transitive and rep.euclidean
    assert rep.ka and rep.containment and rep.la
    assert rep.witnesses == {}


def test_validate_unc_fixture():
    rep = validate(unc_model())
    assert rep.ka and rep.containment
    assert not rep.reflexive
    assert rep.witnesses["reflexive"] == (1, "s")


def test_validate_empty_relation_vacuous():
    m = AwarenessStructure(1, ["p"], ["s"], {"s": {"p"}}, {"s": set()},
                           {1: []}, {1: {"s": set()}})
    rep = validate(m)
    assert rep.euclidean and rep.transitive
    assert not rep.reflexive and rep.witnesses["reflexive"] == (1, "s")


def test_constructor_enforces_invariants():
    with pytest.raises(InvalidStructure):
        AwarenessStructure(1, ["p"], ["s"], {"s": set()}, {"s": set()},
                           {1: []}, {1: {"s": set()}})
    with pytest.raises(InvalidStructure):
        AwarenessStructure(1, ["p"], ["s"], {"s": {"p"}}, {"s": {"q"}},
                           {1: []}, {1: {"s": set()}})
    with pytest.raises(InvalidStructure):
        # ka fails across the edge
        AwarenessStructure(
            1, ["p"], ["s", "t"], {"s": {"p"}, "t": {"p"}},
            {"s": set(), "t": set()}, {1: [("s", "t")]},
            {1: {"s": {"p"}, "t": set()}})
    with pytest.raises(InvalidStructure):
        # successor language misses the awareness vocabulary
        AwarenessStructure(
            1, ["p", "q"], ["s", "t"], {"s": {"p"}, "t": {"q"}},
            {"s": set(), "t": set()}, {1: [("s", "t")]},
            {1: {"s": {"p"}, "t": {"p"}}})
    for make in (lambda: AwarenessStructure(1, ["p"], [], {}, {}, {1: []},
                                            {1: {}}),
                 lambda: generate_random(1, 0, ["p"]),
                 lambda: generate_random(1, -2, ["p"])):
        with pytest.raises(InvalidStructure, match="at least one world"):
            make()


def _brute_count_single_world():
    # independent count for n=1, |S|=1, props={p}: L is forced to {p}
    count = 0
    for val in (set(), {"p"}):
        for aware in (set(), {"p"}):
            for rel in ([], [("s", "s")]):
                try:
                    AwarenessStructure(1, ["p"], ["s"], {"s": {"p"}},
                                       {"s": val}, {1: rel},
                                       {1: {"s": aware}})
                except InvalidStructure:
                    continue
                count += 1
    return count


def test_enumeration_golden_counts():
    assert _brute_count_single_world() == 8
    got = list(enumerate_models(1, 1, ["p"]))
    assert len(got) == 8
    assert count_models(1, 1, ["p"]) == 8
    reflexive = list(enumerate_models(1, 1, ["p"], frozenset("r")))
    assert len(reflexive) == 4
    assert all(("w0", "w0") in m.rel[1] for m in reflexive)


def test_enumeration_no_duplicates_and_valid():
    seen = set()
    n = 0
    for m in enumerate_models(1, 2, ["p", "q"]):
        key = m.key()
        assert key not in seen
        seen.add(key)
        rep = validate(m)
        assert rep.ka and rep.containment
        n += 1
    assert n == count_models(1, 2, ["p", "q"])


def test_enumeration_respects_class():
    for m in itertools.islice(
            enumerate_models(1, 2, ["p"], frozenset("rte")), 200):
        assert validate(m).satisfies(frozenset("rte"))
    n_rte = count_models(1, 3, ["p", "q"], frozenset("rte"))
    assert n_rte == sum(1 for _ in enumerate_models(1, 3, ["p", "q"],
                                                    frozenset("rte")))


def test_enumeration_two_agents():
    ms = list(enumerate_models(2, 1, ["p"]))
    assert len(ms) == count_models(2, 1, ["p"])
    assert all(validate(m).ka for m in ms)


def test_enumeration_cap():
    with pytest.raises(ValueError):
        next(iter(enumerate_models(1, 3, ["p", "q"], max_count=10)))


def test_generate_random_contract():
    m = generate_random(1, 3, ["p", "q"], frozenset("rte"), seed=7)
    rep = validate(m)
    assert rep.satisfies(frozenset("rte"))
    # equivalence relation: awareness constant on each class
    for (s, t) in m.rel[1]:
        assert m.aware[1][s] == m.aware[1][t]
    again = generate_random(1, 3, ["p", "q"], frozenset("rte"), seed=7)
    assert m == again
    other = generate_random(1, 3, ["p", "q"], frozenset("rte"), seed=8)
    assert isinstance(other, AwarenessStructure)


def test_generate_random_all_classes_validate():
    for cls in (frozenset(), frozenset("r"), frozenset("t"), frozenset("e"),
                frozenset("rt"), frozenset("re"), frozenset("te"),
                frozenset("rte")):
        for seed in range(12):
            m = generate_random(2, 4, ["p", "q"], cls, seed=seed)
            assert validate(m).satisfies(cls), (cls, seed)


def test_generated_awareness_constant_on_components():
    for seed in range(10):
        m = generate_random(1, 4, ["p", "q"], frozenset(), seed=seed)
        # ka + finiteness: awareness constant on weakly-connected components
        for (s, t) in m.rel[1]:
            assert m.aware[1][s] == m.aware[1][t]


def _held_views(m):
    """The set views m holds, read without decoding any."""
    held = set()
    for name in ("lang", "val", "rel", "aware"):
        try:
            object.__getattribute__(m, name)
        except AttributeError:
            continue
        held.add(name)
    return held


def _rebuilt(m):
    """m through the checked constructor, from its decoded set views."""
    return AwarenessStructure(m.agents, m.props, m.worlds, m.lang, m.val,
                              m.rel, m.aware)


def test_attached_encoding_is_the_derived_one():
    # a generated or enumerated structure holds only its encoding until a
    # set view is read; rebuilt from the decoded views by the checked
    # constructor, it passes the checks and derives the same encoding
    streams = [enumerate_models(1, 2, ("p", "q")),
               enumerate_models(1, 2, ("q", "p"), constant_language=True),
               enumerate_models(1, 2, ("p", "q"), frozenset("rte")),
               enumerate_models(2, 2, ("p",)),
               enumerate_models(1, 3, ("p",), frozenset("e"), min_worlds=3)]
    generated = (generate_random(1 + seed % 3, 1 + seed % 4, ("r", "p", "q"),
                                 parse_model_class(cls), seed=seed,
                                 require_nonempty_awareness=nonempty)
                 for seed in range(40)
                 for cls in ("", "r", "t", "e", "rt", "re", "te", "rte")
                 for nonempty in (False, True))
    n = 0
    for m in itertools.chain(*streams, generated):
        assert not _held_views(m)
        encoding = m.encoding()
        rebuilt = _rebuilt(m)
        assert rebuilt == m and rebuilt.encoding() == encoding
        assert model_from_dict(model_to_dict(m)) == m
        n += 1
    assert n > 1000
    # the generators check their arguments alike; no agents is an error
    for make in (lambda: count_models(0, 2, ("p", "q")),
                 lambda: next(enumerate_models(0, 2, ("p", "q"))),
                 lambda: generate_random(0, 2, ("p", "q"))):
        with pytest.raises(InvalidStructure, match="at least one agent"):
            make()


def test_views_are_decoded_on_first_read():
    m = generate_random(2, 3, ("p", "q"), frozenset("rte"), seed=5)
    evaluate_hr(m, "w0", parse("forall #x . (#x -> K1 #x)", 2))
    hr = m._ctx_cache["hr"]
    for made in (m, next(enumerate_models(1, 2, ("p",))),
                 rename_props(m, {"p": "r"}), hr):
        assert not _held_views(made)
        with pytest.raises(AttributeError):
            made.no_such_view
        assert made.aware and _held_views(made) == {"lang", "val", "rel",
                                                     "aware"}
        # decoded, it is a plain structure, whose attribute loads CPython
        # specializes
        assert type(made) is AwarenessStructure
    assert all(lang == {"p", "q"} for lang in hr.lang.values())
    assert (hr.val, hr.rel, hr.aware) == (m.val, m.rel, m.aware)
    assert _held_views(barcan_model()) == {"lang", "val", "rel", "aware"}


def test_copy_and_pickle_of_a_structure_from_masks():
    for m in (generate_random(2, 3, ("p", "q"), seed=3),
              next(enumerate_models(1, 2, ("p",), min_worlds=2)),
              rename_props(barcan_model(), {"p": "r"})):
        evaluate(m, m.worlds[0], parse("forall #x . (#x -> K1 #x)", 1))
        for other in (copy.copy(m), copy.deepcopy(m),
                      pickle.loads(pickle.dumps(m))):
            assert other == m and other is not m
            assert model_to_dict(other) == model_to_dict(m)
            assert _rebuilt(other) == m


def test_one_world_forced_shape():
    m = generate_random(2, 1, ["p"], frozenset("r"), seed=0)
    assert m.lang["w0"] == {"p"}
    assert ("w0", "w0") in m.rel[1] and ("w0", "w0") in m.rel[2]


def test_rename_identity_and_pointwise():
    m = barcan_model()
    assert rename_props(m, {}) == m
    m2 = rename_props(m, {"p": "r", "q": "s"})
    assert m2.lang["s"] == {"r"}
    assert m2.lang["t"] == {"r", "s"}
    assert m2.rel == m.rel
    with pytest.raises(ValueError):
        rename_props(m, {"p": "q"})


def test_rename_preserves_truth():
    rng = random.Random(3)
    tau = {"p": "u", "q": "v"}
    for seed in range(40):
        m = generate_random(2, 3, ["p", "q"], frozenset(), seed=seed)
        m2 = rename_props(m, tau)
        f = random_sentence(rng, ("p", "q"), 2, quantifier_prob=0.25)
        g = map_props(f, tau)
        for w in m.worlds:
            assert evaluate(m, w, f) is evaluate(m2, w, g)


def test_swap_model_bullets():
    m = barcan_model()
    m2 = swap_model(m, "p", "q")
    # p in L'(s) iff q in L(s), and conversely
    for w in m.worlds:
        assert ("p" in m2.lang[w]) == ("q" in m.lang[w])
        assert ("q" in m2.lang[w]) == ("p" in m.lang[w])
        assert m.lang[w] - {"p", "q"} == m2.lang[w] - {"p", "q"}
    assert swap_model(m2, "p", "q") == m
    with pytest.raises(ValueError):
        swap_model(m, "p", "p")


def test_swap_preserves_truth():
    rng = random.Random(9)
    for seed in range(40):
        m = generate_random(1, 3, ["p", "q"], frozenset(), seed=seed)
        m2 = swap_model(m, "p", "q")
        f = random_sentence(rng, ("p", "q"), 1, quantifier_prob=0.25)
        g = swap_props(f, "p", "q")
        for w in m.worlds:
            assert evaluate(m, w, f) is evaluate(m2, w, g)


def test_transformations_preserve_validate_flags():
    for seed in range(15):
        m = generate_random(1, 3, ["p", "q"], frozenset("e"), seed=seed)
        before = validate(m).as_dict()
        for m2 in (swap_model(m, "p", "q"),
                   rename_props(m, {"p": "a", "q": "b"})):
            after = validate(m2).as_dict()
            for name in ("reflexive", "transitive", "euclidean", "ka",
                         "containment", "la"):
                assert before[name] == after[name]


def test_json_roundtrip():
    m = unc_model()
    d = model_to_dict(m)
    assert model_from_dict(d) == m
    text = json.dumps(d, sort_keys=True)
    assert model_from_dict(json.loads(text)) == m


def test_json_fixture_files():
    mb = load_model("fixtures/M_barcan.json")
    assert validate(mb).satisfies(frozenset("rte"))
    mu = load_model("fixtures/M_unc.json")
    assert mu.lang["t2"] == {"p", "q"}


def test_loader_reports_first_violation():
    d = model_to_dict(unc_model())
    d["worlds"][0]["lang"] = []
    with pytest.raises(InvalidStructure, match="empty language"):
        model_from_dict(d)
    d2 = model_to_dict(unc_model())
    d2["worlds"][0]["true"] = ["q"]
    with pytest.raises(InvalidStructure, match="valuation"):
        model_from_dict(d2)
    d3 = model_to_dict(unc_model())
    d3["relations"]["1"].append(["s", "nowhere"])
    with pytest.raises(InvalidStructure, match="unknown world"):
        model_from_dict(d3)
    # shape errors are reported the same way, never as another exception
    spoilers = [
        lambda d: d["worlds"][0].update(aware=["p"]),
        lambda d: d["worlds"][0].update(lang=5),
        lambda d: d["worlds"][0].update(lang="p"),
        lambda d: d.update(relations=[]),
        lambda d: d.update(agents="x"),
        lambda d: d.update(agents=1.9),
        lambda d: d.update(agents=True),
        lambda d: d["relations"]["1"].append(["s", "t1", "t2"]),
        lambda d: d["worlds"].append(["s"]),
        lambda d: d.pop("props"),
    ]
    for spoil in spoilers:
        d = model_to_dict(unc_model())
        spoil(d)
        with pytest.raises(InvalidStructure, match="malformed"):
            model_from_dict(d)
    with pytest.raises(InvalidStructure, match="malformed"):
        model_from_dict(5)


def test_parse_model_class():
    assert parse_model_class("r,t,e") == frozenset("rte")
    assert parse_model_class("rte") == frozenset("rte")
    assert parse_model_class("") == frozenset()
    with pytest.raises(ValueError):
        parse_model_class("rx")


def test_generation_ignores_hash_seed():
    # a relation's components must not come out in the hash order of its
    # pairs, which changes with the hash seed
    src = os.path.dirname(os.path.dirname(awarecheck.__file__))
    outs = set()
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        outs.add(subprocess.run(
            [sys.executable, "-m", "awarecheck.cli", "gen", "--agents", "1",
             "--worlds", "3", "--props", "p,q", "--seed", "12"],
            env=env, capture_output=True, check=True).stdout)
    assert len(outs) == 1
