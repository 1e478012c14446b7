import random

import pytest

from awarecheck import kernel
from awarecheck._kernel_py import close_profiles as close_py
from awarecheck._kernel_py import make_evaluator as make_pure_evaluator
from awarecheck.checker import KXA, XA, QuantifierDomain, _context, _program
from awarecheck.fuzz import random_sentence
from awarecheck.model import generate_random

try:
    from awarecheck._kernel_c import close_profiles as close_c
    from awarecheck._kernel_c import make_evaluator
except ImportError:
    close_c = None
    make_evaluator = None

needs_c = pytest.mark.skipif(close_c is None,
                             reason="compiled kernel not built")


def _kernel_inputs(m, domain):
    ctx = _context(m, domain)
    ops = domain.ops
    return (ctx.nw, ctx.lang_masks, ctx.prop_true, ctx.succ, ctx.aware,
            "not" in ops, "and" in ops, "K" in ops, "A" in ops, "X" in ops,
            domain.include_top, 4_000_000)


@needs_c
def test_closure_backends_agree():
    domains = [KXA, XA, QuantifierDomain(include_top=True)]
    for seed in range(40):
        m = generate_random(2, 4, ["p", "q", "r"], frozenset(), seed=seed)
        for domain in domains:
            args = _kernel_inputs(m, domain)
            recs_py, layers_py = close_py(*args)
            recs_c, layers_c = close_c(*args)
            assert recs_py == recs_c
            assert layers_py == layers_c


@needs_c
def test_eval_backends_agree():
    # the compiled and the pure interpreter run the same programs
    rng = random.Random(77)
    for seed in range(60):
        m = generate_random(2, 4, ["p", "q"], frozenset(), seed=seed)
        for domain in (KXA, XA):
            args = _context(m, domain).eval_inputs
            fast = make_evaluator(*args)
            pure = make_pure_evaluator(*args)
            for _ in range(8):
                f = random_sentence(rng, m.props, m.agents, max_depth=4,
                                    quantifier_prob=0.3,
                                    allow_top=(seed % 3 == 0))
                program = _program(m, f)
                assert fast.run(*program) == pure.run(*program), (seed, f)


@needs_c
def test_closure_size_guard_routes_to_python():
    # 65 propositions exceeds the compiled kernel's mask width
    props = [f"p{i}" for i in range(65)]
    lang = [(1 << 65) - 1]
    ptrue = [1] * 65
    recs, layers = kernel.close_profiles(
        1, lang, ptrue, [[1]], [[0]],
        True, False, False, False, False, False, 10_000)
    assert len(recs) == 130  # each proposition and its negation


def test_backend_reported():
    assert kernel.BACKEND in ("c", "python")
