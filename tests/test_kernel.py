import gc
import os
import random
import shutil
import subprocess
import sys
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awarecheck import checker, kernel
from awarecheck._kernel_py import Kernel
from awarecheck.checker import (KXA, XA, QuantifierDomain, Truth,
                                _compile_program, _context, _program,
                                direct_evaluate, evaluate, forall_witness,
                                realizable_profiles, stabilization_depth,
                                weak_counterexample)
from awarecheck.fuzz import random_open_formula, random_sentence
from awarecheck.model import AwarenessStructure, generate_random
from awarecheck.syntax import (TOP, A, And, Forall, K, Not, Prop, Var, X,
                               free_vars, parse, subst_var)

needs_c = pytest.mark.skipif(kernel.BACKEND != "c",
                             reason=kernel.BACKEND_REASON)

PACKAGE = os.path.dirname(kernel.__file__)
BARCAN = os.path.join(os.path.dirname(__file__), "..", "fixtures",
                      "M_barcan.json")


def _kernel_inputs(m, domain):
    """m's model encoding, as its evaluation kernel took it."""
    k = _context(m, domain)
    return k.n_worlds, k.pwm, k.ptrue, k.succ, k.aware


def _closures_agree(m, domain):
    """A pure and a native kernel over m, each closed under the domain, once
    their closures are seen to agree."""
    kernels = [cls(*_kernel_inputs(m, domain))
               for cls in (Kernel, kernel.NativeKernel)]
    pure, native = (k.close(domain.opcodes, 4_000_000) for k in kernels)
    assert pure == tuple(map(list, native))
    # the profile columns ak_run reads in place, as many as it reads
    model = kernels[1]._model
    vocab, truth = (col[:model.n_profiles]
                    for col in (model.prof_v, model.prof_f))
    assert list(zip(vocab, truth)) == kernels[0].profiles
    return kernels


def _evaluators_agree(m, kernels, formulas):
    pure, native = kernels
    alone = []
    for f in formulas:
        program = _program(m, f)
        alone += native.run(*program)
        assert alone[-3:] == pure.run(*program), f
    # all of them as one program with a root per formula
    code, roots = _compile_program(
        formulas, {p: j for j, p in enumerate(m.props)}, m.agents)
    assert native.run(code, roots) == pure.run(code, roots) == alone
    # and every node that uses no slot, with the first falsifying profile
    # of each such quantifier at each world where it is False
    closed = array("i", [i for i, used in enumerate(code[5]) if not used])
    bufs = [array("q", [-1]) * (len(code[0]) * len(m.worlds)) for _ in "pn"]
    assert native.run(code, closed, bufs[1]) == pure.run(code, closed,
                                                          bufs[0])
    assert bufs[0] == bufs[1]
    return alone


def _conjunction(parts):
    # balanced, so that the compiler's recursion stays shallow
    while len(parts) > 1:
        parts = [And(*parts[k:k + 2]) if k + 1 < len(parts) else parts[k]
                 for k in range(0, len(parts), 2)]
    return parts[0]


@needs_c
def test_closure_backends_agree():
    domains = [KXA, XA, QuantifierDomain(include_top=True)]
    for seed in range(40):
        m = generate_random(2, 4 + seed % 3, ["p", "q", "r"], frozenset(),
                            seed=seed)
        for domain in domains:
            _closures_agree(m, domain)


@needs_c
def test_eval_backends_agree():
    # the native and the pure interpreter run the same programs, with the
    # same results
    rng = random.Random(77)
    for seed in range(60):
        m = generate_random(2, 4, ["p", "q"], frozenset(), seed=seed)
        for domain in (KXA, XA):
            formulas = [random_sentence(rng, m.props, m.agents, max_depth=4,
                                        quantifier_prob=0.3,
                                        allow_top=(seed % 3 == 0))
                        for _ in range(8)]
            _evaluators_agree(m, _closures_agree(m, domain), formulas)


def test_resumed_closure_is_the_one_shot_closure():
    # a closure resumed one BFS layer at a time holds, after each step, the
    # one-shot closure's records through that layer, in its order and with
    # its layers, and runs over them as over the same prefix on the other
    # backend, falsifiers included; at the fixpoint it is the one-shot
    # closure, and a further resume changes nothing
    backends = [Kernel] + [kernel.NativeKernel] * (kernel.BACKEND == "c")
    rng = random.Random(16)
    for seed in range(16):
        m = generate_random(1 + seed % 3, 3 + seed % 5,
                            ["p", "q", "r", "s"][:2 + seed % 3], seed=seed)
        code, roots = _compile_program(
            [Forall("x", random_open_formula(rng, m.props, m.agents, "x",
                                             max_depth=3))
             for _ in range(4)], {p: j for j, p in enumerate(m.props)},
            m.agents)
        for domain in (KXA, XA, QuantifierDomain(include_top=True)):
            inputs = _kernel_inputs(m, domain)
            steps = []
            for cls in backends:
                whole = tuple(map(list, cls(*inputs).close(
                    domain.opcodes, 4_000_000)))
                k, depth, got = cls(*inputs), 0, []
                while not k.done:
                    records, layers = map(list, k.close(
                        domain.opcodes, 4_000_000, depth))
                    through = sum(layer <= depth for layer in whole[1])
                    assert (records, layers) == (whole[0][:through],
                                                 whole[1][:through])
                    falsifiers = array("q", [-1]) * (len(code[0]) * k.n_worlds)
                    got.append((records, k.run(code, roots, falsifiers),
                                falsifiers))
                    depth += 1
                assert depth == max(whole[1]) + 2
                assert tuple(map(list, k.close(domain.opcodes,
                                               4_000_000))) == whole
                steps.append(got)
            assert steps[1:] in ([], steps[:1])


@needs_c
def test_backends_agree_past_former_limits():
    # sizes the old compiled kernel refused: more than 1024 profiles, more
    # than 16 agents, more than 1024 nodes and more than 64 quantifiers
    rng = random.Random(5)
    m = generate_random(2, 8, ["p", "q", "r", "s"], frozenset(), seed=7)
    kernels = _closures_agree(m, KXA)
    assert len(kernels[0].profiles) > 1024
    _evaluators_agree(m, kernels, [
        random_sentence(rng, m.props, m.agents, max_depth=3,
                        quantifier_prob=0.3) for _ in range(6)])

    m = generate_random(17, 3, ["p", "q"], frozenset(), seed=3)
    _evaluators_agree(m, _closures_agree(m, KXA), [
        random_sentence(rng, m.props, m.agents, max_depth=4,
                        quantifier_prob=0.3) for _ in range(20)])

    # 600 conjuncts: the compiler stores their shared subformulas once
    m = generate_random(2, 4, ["p", "q"], frozenset(), seed=11)
    big = _conjunction([random_sentence(rng, m.props, m.agents, max_depth=4,
                                        quantifier_prob=0.4)
                        for _ in range(600)])
    code, _ = _program(m, big)
    assert len(code[0]) > 1024 and code[-1] > 64
    _evaluators_agree(m, _closures_agree(m, KXA), [big])


def test_closure_size_guard_routes_to_python():
    # 65 propositions exceed the native kernel's mask width, so the
    # structure runs the pure kernels
    props = [f"p{i}" for i in range(65)]
    m = AwarenessStructure(1, props, ["w"], {"w": props}, {"w": props},
                           {1: [("w", "w")]}, {1: {"w": []}})
    k = _context(m, QuantifierDomain(ops=frozenset({"not"})), depth=-1)
    assert len(k.records) == 130  # each proposition and its negation
    assert type(k) is Kernel
    assert str(evaluate(m, "w", parse("p64 & forall #x . (#x | !#x)"),
                        QuantifierDomain(ops=frozenset({"not"})))) == "True"


def _sentences(n_agents):
    """Sentences over p and q with quantifiers, shadowed variables and
    `true`: every free variable is bound at the top."""
    leaves = st.sampled_from([Prop("p"), Prop("q"), TOP, Var("x"),
                              Var("y")])

    def extend(sub):
        return st.one_of(
            sub.map(Not), st.builds(And, sub, sub),
            st.builds(lambda op, i, g: op(i, g), st.sampled_from([K, A, X]),
                      st.integers(1, n_agents), sub),
            st.builds(Forall, st.sampled_from("xy"), sub))

    def close(f):
        for v in sorted(free_vars(f)):
            f = Forall(v, f)
        return f

    return st.recursive(leaves, extend, max_leaves=8).map(close)


def _answers(m, domain, formulas):
    return [(weak_counterexample(m, f, domain),
             [(evaluate(m, w, f, domain), forall_witness(m, w, f, domain))
              for w in m.worlds]) for f in formulas]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 4),
       st.lists(_sentences(2), min_size=1, max_size=4))
def test_native_and_pure_contexts_agree(seed, n_worlds, formulas):
    # one kernel per domain on each backend, the pure one forced; every
    # answer the checker derives from a kernel must be the same
    m = generate_random(2, n_worlds, ["p", "q"], frozenset(), seed=seed)
    for ops in (KXA.ops, XA.ops):
        for top in (False, True):
            domain = QuantifierDomain(ops, include_top=top)
            m._ctx_cache.clear()
            native = _answers(m, domain, formulas)
            assert type(_context(m, domain)) is (
                kernel.NativeKernel if kernel.BACKEND == "c" else Kernel)
            m._ctx_cache.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(checker, "NativeKernel", Kernel)
                assert type(_context(m, domain)) is Kernel
            assert _answers(m, domain, formulas) == native
            # and after the readers closed the kernel to the fixpoint
            m._ctx_cache.clear()
            k = _context(m, domain, depth=-1)
            assert _answers(m, domain, formulas) == native
            assert _context(m, domain) is k


@pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
def test_closure_copied_when_read_and_freed_once(monkeypatch):
    # a closure resumed layer by layer, then carried to the fixpoint by the
    # readers of the profiles, then the witness search give the same
    # answers, bit for bit, on native and pure kernels; there is one native
    # closure per (structure, domain), and its _Records, however often
    # resumed, is released exactly once, when its kernel is collected.  A
    # closure freed late, or twice, fails the test, also from a __del__
    closed, freed = [], []
    if kernel.BACKEND == "c":
        lib = kernel._lib
        real_close, real_free = lib.ak_close, lib.ak_free

        def ak_close(model, ops, cap, depth, out):
            if not hasattr(out, "serial"):  # a new closure, not a resume
                out.serial = len(closed)
                closed.append(out.serial)
            return real_close(model, ops, cap, depth, out)

        def ak_free(out):
            if hasattr(out, "serial"):  # not a closure of an earlier test
                freed.append(out.serial)
            real_free(out)

        gc.collect()
        monkeypatch.setattr(lib, "ak_close", ak_close)
        monkeypatch.setattr(lib, "ak_free", ak_free)
    rng = random.Random(8)
    for seed in range(12):
        m = generate_random(2, 3 + seed % 4, ["p", "q", "r"], seed=seed)
        fs = [Forall("x", random_open_formula(rng, m.props, m.agents, "x",
                                              max_depth=3))
              for _ in range(4)]
        answers = []
        for cls in (kernel.NativeKernel, Kernel):
            m._ctx_cache.clear()
            gc.collect()
            assert sorted(freed) == closed
            start = len(closed)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(checker, "NativeKernel", cls)
                verdicts = [[evaluate(m, w, f) for w in m.worlds]
                            for f in fs]
                profiles = realizable_profiles(m)
                k = _context(m, KXA)
                # the one closure, if native, is live
                assert sorted(freed) + closed[start:] == closed
                assert len(closed) - start in (0, 1)
                answers.append((
                    verdicts, profiles, stabilization_depth(m),
                    [[forall_witness(m, w, f) for w in m.worlds]
                     for f in fs],
                    list(k.records), list(k.layers), k.layer, k.done))
                del k
        assert answers[0] == answers[1]
    m._ctx_cache.clear()
    gc.collect()
    assert sorted(freed) == closed
    assert len(closed) == 12 * (kernel.BACKEND == "c")


@needs_c
def test_native_witness_search_stays_in_c(monkeypatch, capsys):
    # a False quantified eval decides and explains the verdict with ak_run:
    # the pure interpreter never runs, and the closure's profiles are never
    # copied out of C
    def refuse(*args):
        raise AssertionError("the pure interpreter ran")

    monkeypatch.setattr(Kernel, "_load", refuse)
    monkeypatch.setattr(Kernel, "_node", refuse)
    assert not hasattr(kernel.NativeKernel, "load")
    from awarecheck.cli import main
    assert main(["eval", BARCAN, "s", "X1 (forall #x . A1 #x)"]) == 1
    assert capsys.readouterr().out == "False  (witness: q)\n"
    rng = random.Random(4)
    found = 0
    for seed in range(12):
        m = generate_random(2, 6, ["p", "q", "r"], seed=seed)
        for _ in range(4):
            f = Forall("x", random_open_formula(rng, m.props, m.agents, "x",
                                                max_depth=3))
            for w in m.worlds:
                if evaluate(m, w, f) is Truth.FALSE:
                    found += forall_witness(m, w, f) is not None
        k = _context(m, KXA)
        assert type(k) is kernel.NativeKernel and k.profiles is None
    assert found > 20


@pytest.mark.parametrize("native", [True, False])
def test_witnesses_falsify_by_the_oracle(monkeypatch, native):
    # on each backend, every witness of a False `forall #x . body` at w
    # makes the brute-force oracle read the instance body[witness/x] False
    # at w
    if not native:
        monkeypatch.setattr(checker, "NativeKernel", Kernel)
    rng = random.Random(41)
    checked = 0
    for seed in range(30):
        m = generate_random(1 + seed % 2, 3 + seed % 3, ["p", "q"], seed=seed)
        for domain in (KXA, XA):
            for _ in range(3):
                body = random_open_formula(rng, m.props, m.agents, "x",
                                           max_depth=3)
                f = Forall("x", body)
                for w in m.worlds:
                    witness = forall_witness(m, w, f, domain)
                    if evaluate(m, w, f, domain) is not Truth.FALSE:
                        assert witness is None
                        continue
                    inst = subst_var(body, "x", witness)
                    assert direct_evaluate(m, w, inst, domain) is \
                        Truth.FALSE, (seed, w, f, witness)
                    checked += 1
    assert type(_context(m, KXA)) is (
        kernel.NativeKernel if native and kernel.BACKEND == "c" else Kernel)
    assert checked > 300


def test_one_kernel_per_context(monkeypatch):
    # closing, running and the witness search share one kernel object and,
    # on the native backend, one marshalled _Model
    kernels, models = [], []
    init, real = Kernel.__init__, kernel._Model
    monkeypatch.setattr(Kernel, "__init__", lambda self, *args:
                        kernels.append(self) or init(self, *args))
    monkeypatch.setattr(kernel, "_Model",
                        lambda *args: models.append(args) or real(*args))
    m = generate_random(2, 4, ["p", "q"], frozenset(), seed=1)
    f = parse("forall #x . K1 (#x | !#x) & !A2 p")
    for w in m.worlds:
        evaluate(m, w, f)
        forall_witness(m, w, f)
    assert len(kernels) == 1
    assert len(models) == (kernel.BACKEND == "c")


def test_backend_reported():
    assert kernel.BACKEND in ("c", "python")
    assert kernel.BACKEND_REASON


def _fresh_run(tmp_path, code, path, planted=()):
    """Runs code against a copy of the package without its __pycache__/,
    into which the planted files are put first."""
    shutil.copytree(PACKAGE, tmp_path / "awarecheck",
                    ignore=shutil.ignore_patterns("__pycache__"))
    for name in planted:
        (tmp_path / "awarecheck" / "__pycache__").mkdir(exist_ok=True)
        (tmp_path / "awarecheck" / "__pycache__" / name).write_bytes(b"")
    env = dict(os.environ, PYTHONPATH=str(tmp_path), PATH=path)
    code = "from awarecheck import kernel; print(kernel.__file__); " + code
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    lines = done.stdout.splitlines()
    assert lines and lines[0].startswith(str(tmp_path)), done.stderr
    return done.returncode, lines[1:]


@needs_c
def test_first_import_builds_the_native_kernel(tmp_path):
    # a build removes the libraries built from earlier sources
    code, out = _fresh_run(tmp_path, "print(kernel.BACKEND)",
                           os.environ["PATH"], ["_kernel.00000000.so"])
    assert (code, out) == (0, ["c"])
    built = [lib.name for lib in (tmp_path / "awarecheck" / "__pycache__")
             .glob("_kernel.*.so")]
    assert len(built) == 1 and built != ["_kernel.00000000.so"]


@needs_c
def test_native_kernel_compiles_cleanly(tmp_path):
    done = subprocess.run(
        ["cc", "-std=c99", "-Wall", "-Wextra", "-pedantic", "-Werror", "-O2",
         "-shared", "-fPIC", "-o", str(tmp_path / "k.so"),
         os.path.join(PACKAGE, "_kernel.c")], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_no_compiler_falls_back_to_pure(tmp_path):
    code, out = _fresh_run(
        tmp_path,
        "import sys; from awarecheck.cli import main; "
        "print(kernel.BACKEND); print(kernel.BACKEND_REASON); "
        f"sys.exit(main(['eval', {os.path.abspath(BARCAN)!r}, 's', "
        "'forall #x . X1 A1 #x']))", "")
    assert code == 0
    backend, reason, verdict = out
    assert backend == "python"
    assert "no C compiler" in reason and "cc" in reason
    assert verdict == "True"
    assert not list((tmp_path / "awarecheck" / "__pycache__")
                    .glob("_kernel.*.so"))
