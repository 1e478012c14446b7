import glob
import json
import random

import pytest

from awarecheck.proofs import (RULE_NAMES, SCHEMA_NAMES, SYSTEMS, check_proof,
                               instantiate, match_axiom, parse_system,
                               proof_script_from_dict, schema_instances)
from awarecheck.syntax import (A, And, Forall, Iff, Implies, K, Not, Prop,
                               Var, X, parse, pretty)


def test_schema_names_complete():
    assert len(SCHEMA_NAMES) == 29
    assert set(RULE_NAMES) == {"MP", "Gen_K", "Gen_X", "Gen_star",
                               "Gen_forall"}


def test_match_examples_from_systems():
    assert match_axiom(parse("K1 p -> p", 1), "T")
    assert match_axiom(parse("X2 p -> p", 2), "T_X")
    assert match_axiom(parse("X1 p -> X1 X1 p", 1), "4_X")
    assert match_axiom(
        parse("(!X1 p & A1 p) -> X1 !X1 p", 1), "5_X")
    assert match_axiom(
        parse("(K1 p & K1 (p -> q)) -> K1 q", 1), "K")
    assert match_axiom(parse("X1 q <-> (K1 q & A1 q)", 1), "A0")
    assert match_axiom(
        parse("(forall #x . (A1 #x -> X1 #x)) -> "
              "((forall #x . A1 #x) -> (forall #x . X1 #x))", 1),
        "K_forall")
    assert match_axiom(
        parse("(forall #x . K1 A1 #x) -> K1 (forall #x . A1 #x)", 1),
        "Barcan")
    assert match_axiom(
        parse("!(forall #x . A1 #x) -> X1 !(forall #x . A1 #x)", 1), "FA_X")
    assert match_axiom(
        parse("(forall #x . !A1 #x) -> X1 (forall #x . !A1 #x)", 1),
        "FA_star_X")
    assert match_axiom(
        parse("(forall #x . !Astar1 #x) -> K1 (forall #x . !Astar1 #x)", 1),
        "FA_star")
    assert match_axiom(parse("Astar1 p -> K1 Astar1 p", 1), "XA_star")
    assert match_axiom(parse("K1 p -> Astar1 p", 1), "A0_star")
    assert match_axiom(
        parse("(!K1 p & Astar1 p) -> K1 !K1 p", 1), "5_star")


def test_barcan_star_x_spec_example():
    f = parse("(A1 (forall #x . A1 #x) & "
              "(forall #x . (A1 #x -> X1 A1 #x))) -> "
              "X1 ((forall #x . A1 #x) -> (forall #x . A1 #x))", 1)
    b = match_axiom(f, "Barcan_star_X")
    assert b is not None
    assert b["phi"] == A(1, Var("x"))


def test_nka_x_analogue_matches_nothing_in_axe_xa():
    f = parse("!A1 p -> X1 !A1 p", 1)
    system = parse_system("AXe_XAforall")
    assert all(match_axiom(f, name) is None for name in system.schemas)


def test_agpp_empty_vocabulary_is_top():
    f = Iff(A(1, Forall("x", A(1, Var("x")))), parse("true", 1))
    assert match_axiom(f, "AGPP")
    inst = instantiate("AGPP", {"i": 1, "phi": Forall("x", A(1, Var("x")))})
    assert inst == f


def test_agpp_needs_canonical_order():
    assert match_axiom(parse("A1 (q & p) <-> (A1 p & A1 q)", 1), "AGPP")
    assert match_axiom(parse("A1 (q & p) <-> (A1 q & A1 p)", 1),
                       "AGPP") is None


def test_1forall_side_conditions():
    ok = parse("(forall #x . A1 #x) -> A1 (K2 q)", 2)
    b = match_axiom(ok, "1_forall")
    assert b and b["psi"] == K(2, Prop("q"))
    # a quantified substituend is rejected
    bad = parse("(forall #x . !A1 #x) -> !A1 (forall #x . A1 #x)", 1)
    assert match_axiom(bad, "1_forall") is None
    # `true` only with the permissive configuration
    top = parse("(forall #x . A1 #x) -> A1 true", 1)
    assert match_axiom(top, "1_forall") is None
    assert match_axiom(top, "1_forall", include_top=True)
    # vacuous universal: any conclusion equal to the body is an instance
    vac = parse("(forall #x . A1 p) -> A1 p", 1)
    assert match_axiom(vac, "1_forall")


def test_labels_open_only_where_the_pattern_leaves_them():
    # a bound variable named like the agent metavariable stays a name
    f = parse("(forall #x . forall #i . A1 #i) -> forall #j . A1 #j", 1)
    assert match_axiom(f, "1_forall") is None
    assert match_axiom(
        parse("(forall #x . forall #i . A1 #i) -> forall #i . A1 #i", 1),
        "1_forall")
    # so does a proposition named like a metavariable
    for name in ("?x", "i", "phi"):
        odd = Prop(name)
        body = And(A(1, Var("x")), odd)
        assert match_axiom(Implies(Forall("x", body),
                                   And(A(1, Prop("p")), odd)), "1_forall")
        assert match_axiom(Implies(Forall("x", body),
                                   And(A(1, Prop("p")), Prop("x"))),
                           "1_forall") is None
        assert match_axiom(Implies(K(1, odd), odd), "T") == \
            {"i": 1, "phi": odd}
        assert match_axiom(Implies(K(1, odd), Prop("x")), "T") is None


def test_gen_forall_conclusion_binds_no_inner_variable():
    from awarecheck.proofs import _check_rule, _gen_forall_conclusion
    phi = parse("!(!!(forall #x . forall #z . forall #y . A1 #x) & "
                "!(forall #z . forall #y . A1 !X1 q))", 1)
    conclusion = _gen_forall_conclusion(phi, "q")
    assert _check_rule("Gen_forall", [phi], conclusion, q="q",
                       x=conclusion.var) is None
    assert conclusion.var not in ("x", "y", "z")


def test_nforall_requires_no_free_occurrence():
    assert match_axiom(parse("q -> (forall #x . q)", 1), "N_forall")
    assert match_axiom(parse("q -> (forall #x . p)", 1), "N_forall") is None


def test_match_total_on_non_instances():
    junk = parse("p & q", 1)
    for name in SCHEMA_NAMES:
        assert match_axiom(junk, name) is None


def test_instantiate_match_roundtrip_all_schemas():
    rng = random.Random(42)
    system = SYSTEMS["AX_KXAforall"]
    checked = 0
    for name in SCHEMA_NAMES:
        if name == "Prop":
            continue
        for inst in schema_instances(rng, name, ("p", "q"), 2, system, 8,
                                     depth=2):
            assert match_axiom(inst, name) is not None, \
                (name, pretty(inst))
            checked += 1
    assert checked == 28 * 8


def test_prop_matcher():
    assert match_axiom(parse("p -> p", 1), "Prop")
    assert match_axiom(parse("K1 p | !K1 p", 1), "Prop")
    assert match_axiom(parse("(forall #x . A1 #x) | "
                             "!(forall #x . A1 #x)", 1), "Prop")
    assert match_axiom(parse("p -> q", 1), "Prop") is None
    # semantically equal but syntactically distinct modal atoms stay distinct
    assert match_axiom(parse("K1 (p & q) -> K1 (q & p)", 1), "Prop") is None


def test_systems_match_definitions():
    s = SYSTEMS["AX_KXAforall"]
    assert s.schemas == {"Prop", "AGPP", "KA", "NKA", "K", "A0", "1_forall",
                         "K_forall", "N_forall", "Barcan"}
    assert s.rules == {"MP", "Gen_K", "Gen_forall"}
    s = SYSTEMS["AX_XAforall"]
    assert s.schemas == {"Prop", "AGPP", "XA", "FA_X", "K_X", "A0_X",
                         "1_forall", "K_forall", "N_forall", "Barcan_X"}
    s = SYSTEMS["AXe_XAforall"]
    assert s.schemas == {"Prop", "AGPP", "XA", "FA_star_X", "K_X", "A0_X",
                         "1_forall", "K_forall", "N_forall", "Barcan_star_X"}
    assert s.rules == {"MP", "Gen_X", "Gen_forall"}
    s = SYSTEMS["AXe_KXAAstarforall"]
    assert s.schemas == {"Prop", "AGPP", "KA", "K", "A0", "1_forall",
                         "K_forall", "N_forall", "Barcan_star", "AGPP_star",
                         "A0_star", "FA_star"}
    assert "NKA" not in s.schemas
    assert s.rules == {"MP", "Gen_star", "Gen_forall"}
    s = SYSTEMS["AXe_KAstarforall"]
    assert s.schemas == {"Prop", "AGPP_star", "FA_star", "K", "A0_star",
                         "1_forall", "K_forall", "N_forall", "Barcan_star"}
    s = SYSTEMS["AXe_KAstar"]
    assert s.schemas == {"Prop", "AGPP_star", "K", "A0_star"}
    assert s.rules == {"MP", "Gen_star"}
    assert not s.quantifiers


def test_parse_system_extensions():
    s = parse_system("AXe_XAforall+TX4X5X")
    assert {"T_X", "4_X", "5_X"} <= s.schemas
    s = parse_system("AXe_KXAAstarforall+T45star")
    assert {"T", "4", "5_star"} <= s.schemas and "5" not in s.schemas
    s = parse_system("AX_KXAforall+T45")
    assert {"T", "4", "5"} <= s.schemas
    s = parse_system("AX_KXAforall+T,4")
    assert {"T", "4"} <= s.schemas and "5" not in s.schemas
    with pytest.raises(KeyError):
        parse_system("NoSuchSystem")
    with pytest.raises(KeyError):
        parse_system("AX_KXAforall+bogus")


def test_simple_mp_script_accepted_everywhere():
    lines = [
        {"formula": "p -> p", "just": {"axiom": "Prop"}},
        {"formula": "(p -> p) -> (q -> (p -> p))", "just": {"axiom": "Prop"}},
        {"formula": "q -> (p -> p)", "just": {"rule": "MP", "from": [1, 2]}},
    ]
    for name in ("AX_KXAforall", "AXe_KXAAstarforall", "AXe_KAstar"):
        script = proof_script_from_dict({"system": name, "lines": lines}, 1)
        assert check_proof(script).accepted, name


def test_fixture_scripts():
    for path in sorted(glob.glob("fixtures/proofs/*.json")):
        with open(path) as fh:
            data = json.load(fh)
        script = proof_script_from_dict(data, data.get("agents"))
        outcome = check_proof(script)
        if "mutant" in path:
            assert not outcome.accepted, path
            assert outcome.line is not None and outcome.reason
        else:
            assert outcome.accepted, (path, str(outcome))


def test_fixture_mutant_counts():
    mutants = glob.glob("fixtures/proofs/mutant_*.json")
    accepted = [p for p in glob.glob("fixtures/proofs/*.json")
                if "mutant" not in p]
    assert len(mutants) >= 10
    assert len(accepted) >= 3


def test_gen_forall_checking():
    lines = [
        {"formula": "A1 q -> A1 q", "just": {"axiom": "Prop"}},
        {"formula": "forall #x . (A1 #x -> A1 #x)",
         "just": {"rule": "Gen_forall", "from": [1], "q": "q", "x": "x"}},
    ]
    script = proof_script_from_dict(
        {"system": "AXe_KXAAstarforall+T45star", "lines": lines}, 1)
    assert check_proof(script).accepted
    # substitution at free (unshadowed) positions only is still exact
    lines_shadow = [
        {"formula": "(forall #x . A1 #x) -> A1 q",
         "just": {"axiom": "1_forall"}},
        {"formula": "forall #x . ((forall #x . A1 #x) -> A1 #x)",
         "just": {"rule": "Gen_forall", "from": [1], "q": "q", "x": "x"}},
    ]
    script = proof_script_from_dict(
        {"system": "AXe_KXAAstarforall+T45star", "lines": lines_shadow}, 1)
    assert check_proof(script).accepted
    # a q surviving under a shadowing binder keeps the rule inapplicable
    lines_bad = [
        {"formula": "forall #x . (A1 #x -> A1 q)",
         "just": {"rule": "Gen_forall", "from": [], "q": "q", "x": "x"}},
    ]
    script = proof_script_from_dict(
        {"system": "AXe_KXAAstarforall+T45star", "lines": lines_bad}, 1)
    out = check_proof(script)
    assert not out.accepted


def test_rule_agents_are_exact_ints():
    # a Gen_K line whose agent is True or 1.0 is rejected at that line: it
    # is neither read as agent 1 nor a crash
    from awarecheck.proofs import ProofLine, ProofScript
    premise = parse("p -> p", 1)
    for agent, accepted in ((1, True), (True, False), (1.0, False)):
        script = ProofScript("AX_KXAforall", (
            ProofLine(premise, axiom="Prop"),
            ProofLine(K(1, premise), rule="Gen_K", premises=(1,),
                      agent=agent)))
        out = check_proof(script)
        assert out.accepted is accepted
        if not accepted:
            assert (out.line, out.reason) == (
                2, f"agent {agent!r} must be an int")


def test_json_booleans_are_neither_lines_nor_agents():
    # isinstance(True, int) holds, yet true names no line and no agent: as
    # an agent it is malformed, as a premise it is rejected at its line
    with open("fixtures/proofs/kstar_mp_demo.json") as fh:
        good = json.load(fh)
    assert check_proof(proof_script_from_dict(good, 1)).accepted

    def spoilt(**just):
        d = json.loads(json.dumps(good))
        d["lines"][3]["just"].update(just)
        return d

    for agent in (True, False, "1", 1.0):
        with pytest.raises(ValueError, match="line 4 needs a formula string "
                                             "and a well-typed justification"):
            proof_script_from_dict(spoilt(agent=agent), 1)
    for ref in (True, "a", 3.0):
        out = check_proof(proof_script_from_dict(spoilt(**{"from": [ref]}),
                                                 1))
        assert (out.accepted, out.line, out.reason) == (
            False, 4, f"premise reference {ref} must point to an earlier "
                      "line")
