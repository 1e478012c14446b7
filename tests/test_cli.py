import json

import pytest

from awarecheck import checker
from awarecheck._kernel_py import Kernel
from awarecheck.cli import main
from awarecheck.checker import evaluate, Truth
from awarecheck.model import load_model
from awarecheck.syntax import Forall, Var, A, parse, subst_var

BARCAN = "fixtures/M_barcan.json"
UNC = "fixtures/M_unc.json"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_exit_codes(capsys):
    code, out, _ = run(capsys, "eval", BARCAN, "s", "forall #x . X1 A1 #x")
    assert code == 0 and out.strip() == "True"
    code, out, _ = run(capsys, "eval", BARCAN, "s",
                       "X1 (forall #x . A1 #x)")
    assert code == 1 and out.startswith("False")
    code, out, _ = run(capsys, "eval", BARCAN, "s", "K1 q")
    assert code == 3 and out.strip() == "Undefined"
    code, out, _ = run(capsys, "eval", BARCAN, "s", "true")
    assert code == 0


def test_eval_error_exits(capsys):
    code, _, err = run(capsys, "eval", "no_such_file.json", "s", "p")
    assert code == 2 and "cannot load" in err
    code, _, err = run(capsys, "eval", BARCAN, "s", "p &")
    assert code == 2 and "parse" in err
    code, _, err = run(capsys, "eval", BARCAN, "nowhere", "p")
    assert code == 2
    code, _, err = run(capsys, "eval", BARCAN, "s", "A1 #x")
    assert code == 2 and "sentence" in err
    # nesting too deep to handle is an error, never 1 ("False")
    for text in ("K1 " * 1000 + "p", "K1 " * 3000 + "p",
                 " & ".join(["p"] * 1500)):
        code, out, err = run(capsys, "eval", BARCAN, "s", text)
        assert code == 2 and out == "" and err.startswith("error:")


def test_malformed_model_is_an_error(tmp_path, capsys):
    # a shape error in the model JSON is exit 2, never 1 ("False")
    with open(BARCAN, encoding="utf-8") as fh:
        good = json.load(fh)
    bad = [
        lambda d: d["worlds"][0].update(aware=["p"]),
        lambda d: d["worlds"][0].update(lang=5),
        lambda d: d.update(relations=[]),
        lambda d: d.update(agents="x"),
        lambda d: d.update(agents=1.9),
        lambda d: d.update(agents=True),
        lambda d: d.update(worlds=[]),
    ]
    for k, spoil in enumerate(bad):
        d = json.loads(json.dumps(good))
        spoil(d)
        path = tmp_path / f"bad{k}.json"
        path.write_text(json.dumps(d))
        code, out, err = run(capsys, "eval", str(path), "s", "p")
        assert code == 2 and out == "" and err.startswith("error:"), k


def test_unreadable_model_file_is_a_load_error(tmp_path, capsys):
    # JSON nested too deeply to decode, and a file that is not UTF-8, are
    # load failures like a missing file, never a formula error
    deep, latin = tmp_path / "deep.json", tmp_path / "latin.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    latin.write_bytes('{"agents": 1, "props": ["\u00e9"]}'.encode("latin-1"))
    for path in (deep, latin, tmp_path / "missing.json"):
        code, out, err = run(capsys, "eval", str(path), "s", "p")
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot load model {path}: "), err


def test_closure_limits_are_errors(capsys, monkeypatch):
    # past its size limit or out of memory the closure raises; that is
    # exit 2, never 1 ("False"); only a quantified sentence or `profiles`
    # closes
    from awarecheck import checker
    for exc in (RuntimeError("profile closure exceeded 4000000 profiles"),
                MemoryError("profile closure")):
        def close(*args, exc=exc):
            raise exc
        monkeypatch.setattr(checker, "close_profiles", close)
        for argv in (["eval", BARCAN, "s", "forall #x . X1 A1 #x"],
                     ["profiles", BARCAN]):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "" and err.startswith("error:")
            assert "profile closure" in err


def test_eval_witness_closed_loop(capsys):
    # the failing quantifier sits under X1; the witness surfaces anyway
    code, out, _ = run(capsys, "eval", BARCAN, "s",
                       "X1 (forall #x . A1 #x)", "--json")
    payload = json.loads(out)
    assert payload["value"] == "False"
    assert payload["witness"] == "q"
    m = load_model(BARCAN)
    assert evaluate(m, "t", A(1, parse("q", 1))) is Truth.FALSE
    code, out, _ = run(capsys, "eval", BARCAN, "t", "forall #x . A1 #x",
                       "--json")
    payload = json.loads(out)
    assert code == 1 and payload["witness"] == "q"
    m = load_model(BARCAN)
    inst = subst_var(A(1, Var("x")), "x", parse(payload["witness"], 1))
    assert evaluate(m, "t", inst) is Truth.FALSE
    code, out, _ = run(capsys, "eval", UNC, "s",
                       "exists #x . !A1 #x", "--json")
    payload = json.loads(out)
    assert payload["value"] == "False" and code == 1


def test_quantified_eval_runs_the_kernel_once(capsys, monkeypatch):
    # the verdict and the witness come from one run of the sentence's
    # program, on either backend
    runs = []
    for cls in {checker.NativeKernel, Kernel}:
        def counted(self, *args, real=cls.run):
            runs.append(args)
            return real(self, *args)
        monkeypatch.setattr(cls, "run", counted)
    code, out, _ = run(capsys, "eval", BARCAN, "t", "forall #x . A1 #x",
                       "--json")
    assert code == 1 and json.loads(out)["witness"] == "q"
    assert len(runs) == 1


def test_unc_fixture_via_cli(capsys):
    code, out, _ = run(
        capsys, "eval", UNC, "s",
        "!X1 !(forall #x . A1 #x) & !X1 (forall #x . A1 #x)")
    assert code == 0 and out.strip() == "True"


def test_valid_command(capsys):
    code, out, _ = run(capsys, "valid", BARCAN, "forall #x . (#x | !#x)")
    assert code == 0 and out.strip() == "valid"
    code, out, _ = run(capsys, "valid", BARCAN,
                       "(forall #x . X1 A1 #x) -> X1 (forall #x . A1 #x)")
    assert code == 1 and out.startswith("counterexample: s")


def _profile(vocab, truth, witness):
    return {"vocab": vocab, "truth": truth, "witness": witness}


def test_profiles_command(capsys):
    # the whole list in discovery order: the order decides which witness
    # eval prints
    code, out, _ = run(capsys, "profiles", BARCAN, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["stabilization_depth"] == 2
    assert payload["profiles"] == [
        _profile(["p"], {"s": True, "t": True}, "p"),
        _profile(["q"], {"t": True}, "q"),
        _profile(["p"], {"s": False, "t": False}, "!p"),
        _profile(["q"], {"t": False}, "!q"),
        _profile(["p", "q"], {"t": True}, "p & q"),
        _profile(["p", "q"], {"t": False}, "!(p & q)"),
    ]
    code, out, _ = run(capsys, "profiles", UNC, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["stabilization_depth"] == 3
    assert payload["profiles"] == [
        _profile(["p"], {"s": True, "t1": True, "t2": True}, "p"),
        _profile(["q"], {"t2": True}, "q"),
        _profile(["p"], {"s": False, "t1": False, "t2": False}, "!p"),
        _profile(["q"], {"t2": False}, "!q"),
        _profile(["p", "q"], {"t2": True}, "p & q"),
        _profile(["p"], {"s": False, "t1": True, "t2": True}, "K1 !p"),
        _profile(["p", "q"], {"t2": False}, "!(p & q)"),
        _profile(["p"], {"s": True, "t1": False, "t2": False}, "!K1 !p"),
    ]


def test_props_command(capsys):
    code, out, _ = run(capsys, "props", UNC)
    assert code == 0
    assert "reflexive: no" in out and "ka: yes" in out


def test_gen_and_enum(tmp_path, capsys):
    out_file = tmp_path / "m.json"
    code, _, _ = run(capsys, "gen", "--worlds", "3", "--class", "r,t,e",
                     "--seed", "5", "--out", str(out_file))
    assert code == 0
    m = load_model(out_file)
    assert len(m.worlds) == 3
    code, out, _ = run(capsys, "enum", "--max-worlds", "1", "--props", "p")
    assert code == 0
    assert len(out.strip().splitlines()) == 8
    code, out, _ = run(capsys, "enum", "--max-worlds", "2", "--props", "p,q",
                       "--count-only")
    assert code == 0 and out.strip().isdigit()
    # 65,536 relations on 4 worlds fall into 15 component splits
    code, out, _ = run(capsys, "enum", "--max-worlds", "4", "--props",
                       "p,q,r", "--count-only")
    assert code == 0 and out.strip() == "84204788664"


def test_bad_bounds_are_errors(capsys):
    # arguments the model builders refuse, no worlds and negative counts
    # are exit 2, never 1 ("False") or 0 with an empty verdict; the last two
    # pass the enumeration cap of 20M models
    for argv in (["gen", "--props", ","], ["gen", "--class", "xyz"],
                 ["gen", "--agents", "0"], ["gen", "--props", "p,q,p"],
                 ["gen", "--worlds", "0"], ["gen", "--count", "-1"],
                 ["sweep", "AXe_KAstar", "--class", "q"],
                 ["sweep", "AXe_KAstar", "--worlds", "0"],
                 ["sweep", "AXe_KAstar", "--models", "-3"],
                 ["sweep", "AXe_KAstar", "--instances", "-1"],
                 ["enum", "--limit", "-1"],
                 ["enum", "--max-worlds", "5"],
                 ["enum", "--max-worlds", "3", "--props", "p,q,r"],
                 ["enum", "--max-worlds", "4", "--props", "p,q,r"],
                 ["enum", "--agents", "-1", "--count-only"],
                 ["enum", "--agents", "0"], ["enum", "--props", "p,p"],
                 ["enum", "--max-worlds", "0", "--count-only"],
                 ["enum", "--props", ",", "--count-only"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:"), argv


def test_gen_deterministic_json(capsys):
    code, out1, _ = run(capsys, "gen", "--seed", "9", "--json")
    code, out2, _ = run(capsys, "gen", "--seed", "9", "--json")
    assert out1 == out2
    code, out3, _ = run(capsys, "gen", "--seed", "10", "--json")
    assert out1 != out3


def test_sweep_command(capsys):
    code, out, _ = run(capsys, "sweep", "AXe_XAforall+TX4X5X", "--class",
                       "r,t,e", "--models", "25", "--seed", "42",
                       "--instances", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["unexpected"] == []
    assert payload["models"] == 25
    code, out2, _ = run(capsys, "sweep", "AXe_XAforall+TX4X5X", "--class",
                        "r,t,e", "--models", "25", "--seed", "42",
                        "--instances", "3", "--json")
    assert out == out2


def test_sweep_finds_barcan_x_violation(capsys):
    # Barcan_X is not an axiom of the extended system; force it in as an
    # extension and the sweep must flag it on the canonical countermodel
    code, out, _ = run(capsys, "sweep", "AXe_XAforall+Barcan_X", "--class",
                       "r,t,e", "--models", "0", "--enum-max-worlds", "2",
                       "--seed", "1", "--instances", "4", "--json")
    assert code == 1
    payload = json.loads(out)
    assert any("Barcan_X" in v for v in payload["unexpected"])


def test_prove_command(capsys):
    code, out, _ = run(capsys, "prove", "fixtures/proofs/genx_demo.json")
    assert code == 0 and out.strip() == "accepted"
    code, out, _ = run(capsys, "prove",
                       "fixtures/proofs/mutant_wrong_rule_genk.json")
    assert code == 1 and "rejected at line 2" in out


def test_malformed_proof_script_is_an_error(tmp_path, capsys):
    with open("fixtures/proofs/genx_demo.json", encoding="utf-8") as fh:
        good = json.load(fh)
    bad = [dict(good, lines=good["lines"] + [line])
           for line in ({"just": {"axiom": "Prop"}}, 5)]
    bad += [dict(good, agents=agents) for agents in (True, 1.9, "1")]
    # a justification's agent is an int, and true is none
    bad += [dict(good, lines=[good["lines"][0], dict(
        good["lines"][1], just=dict(good["lines"][1]["just"], agent=agent))])
        for agent in (True, "1")]
    for k, d in enumerate(bad):
        path = tmp_path / f"bad{k}.json"
        path.write_text(json.dumps(d))
        code, out, err = run(capsys, "prove", str(path))
        assert code == 2 and out == "" and err.startswith("error:"), k
    # a premise reference that is no int, true included, is rejected at its
    # line
    for ref in (True, "a"):
        d = dict(good, lines=[good["lines"][0], dict(
            good["lines"][1], just=dict(good["lines"][1]["just"],
                                        **{"from": [ref]}))])
        path = tmp_path / "ref.json"
        path.write_text(json.dumps(d))
        code, out, err = run(capsys, "prove", str(path))
        assert code == 1 and err == "" and out == (
            f"rejected at line 2: premise reference {ref} must point to an "
            "earlier line\n")


def test_swap_test_command(capsys):
    code, out, _ = run(capsys, "swap-test", BARCAN, "p", "q",
                       "--formulas", "60", "--seed", "3")
    assert code == 0 and out.startswith("ok")


def _both_outputs(capsys, *argv):
    """(exit code, output) of a run, human and with --json."""
    return [run(capsys, *argv, *extra)[:2] for extra in ((), ("--json",))]


def test_comparison_outputs_are_pinned(capsys, monkeypatch):
    # swap-test and equiv-astar-aprime print exactly this, passing and
    # failing; a swap-test mismatch is forced by negating the swapped form
    from awarecheck import cli
    from awarecheck.syntax import Not
    assert _both_outputs(capsys, "swap-test", BARCAN, "p", "q", "--formulas",
                         "60", "--seed", "3") == [
        (0, "ok: 60 formulas agree at all worlds\n"),
        (0, '{"command": "swap-test", "formulas": 60, "ok": true, '
            '"seed": 3}\n')]
    assert _both_outputs(capsys, "equiv-astar-aprime", BARCAN,
                         "--formulas", "40") == [
        (0, "ok: operators agree on 40 bodies at all worlds\n"),
        (0, '{"command": "equiv-astar-aprime", "formulas": 40, "ok": true, '
            '"seed": 0}\n')]
    assert _both_outputs(capsys, "equiv-astar-aprime", UNC,
                         "--formulas", "60") == [
        (1, "differ at s for agent 1 on !p: defined-everywhere reads True, "
            "knowledge-based reads False\n"),
        (1, '{"agent": 1, "aprime": "False", "astar": "True", "body": "!p", '
            '"command": "equiv-astar-aprime", "ok": false, "seed": 0, '
            '"world": "s"}\n')]
    swap = cli.swap_props
    monkeypatch.setattr(cli, "swap_props", lambda f, p, q: Not(swap(f, p, q)))
    assert _both_outputs(capsys, "swap-test", BARCAN, "p", "q", "--seed",
                         "3") == [
        (1, "mismatch at s: p is True, swapped form is False\n"),
        (1, '{"command": "swap-test", "formula": "p", "left": "True", '
            '"ok": false, "right": "False", "seed": 3, "world": "s"}\n')]


def test_equiv_command(capsys):
    # M_barcan is euclidean: the operators agree
    code, out, _ = run(capsys, "equiv-astar-aprime", BARCAN,
                       "--formulas", "40")
    assert code == 0
    # M_unc is not: expect a divergence
    code, out, _ = run(capsys, "equiv-astar-aprime", UNC, "--formulas", "60")
    assert code == 1 and "differ" in out
