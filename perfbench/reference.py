"""Reference evaluator for the benchmark's output checks.

Written from the paper's three-valued clauses and independent of
awarecheck.checker: a sentence is Undefined at a world whose language does
not contain its vocabulary; otherwise the usual clauses apply, and K_i phi
counts an Undefined successor as a failure.  Only quantifier-free sentences
are evaluated exactly.  For `forall #x . body` with a quantifier-free body
the module checks instances: a reported witness must make the body False,
and a True verdict must survive sampled instances.

Evaluation is iterative, so sentences nested thousands of operators deep
are fine.  Every benchmark run first checks the evaluator against the
hand-worked verdicts in HAND_WORKED.
"""

from awarecheck.fuzz import random_qf_sentence
from awarecheck.syntax import (A, And, K, Not, Prop, Top, X, parse,
                               subst_var, vocabulary)

TRUE, FALSE, UNDEFINED = "True", "False", "Undefined"

# The quantifier's default domain (KXA): sentences built from propositions
# with these operators; `true` is not part of it.
DOMAIN_OPS = ("not", "and", "K", "A", "X")


class CheckFailed(AssertionError):
    """An output of the program disagrees with the reference."""


def _children(f):
    if isinstance(f, And):
        return (f.left, f.right)
    if isinstance(f, (Not, K, A, X)):
        return (f.body,)
    return ()


def _tables(m, f):
    """(vocabulary, worlds where True) of every node of the quantifier-free
    sentence f, keyed by id; computed bottom-up with an explicit stack."""
    succ = {i: {w: {t for (s, t) in m.rel[i] if s == w} for w in m.worlds}
            for i in range(1, m.agents + 1)}
    done = {}
    stack = [(f, False)]
    while stack:
        g, expanded = stack.pop()
        if id(g) in done:
            continue
        if not expanded:
            stack.append((g, True))
            stack.extend((c, False) for c in _children(g))
            continue
        if isinstance(g, Top):
            voc, true = frozenset(), set(m.worlds)
        elif isinstance(g, Prop):
            voc = frozenset((g.name,))
            true = {w for w in m.worlds if g.name in m.val[w]}
        elif isinstance(g, And):
            (vl, tl), (vr, tr) = done[id(g.left)][1:], done[id(g.right)][1:]
            voc, true = vl | vr, tl & tr
        elif isinstance(g, (Not, K, A, X)):
            voc, body_true = done[id(g.body)][1:]
            defined = {w for w in m.worlds if voc <= m.lang[w]}
            if isinstance(g, Not):
                true = defined - body_true
            else:
                knows = {w for w in defined
                         if succ[g.agent][w] <= body_true}
                aware = {w for w in defined if voc <= m.aware[g.agent][w]}
                true = {K: knows, A: aware, X: knows & aware}[type(g)]
        else:
            raise ValueError(f"not a quantifier-free sentence: {g!r}")
        done[id(g)] = (g, voc, true)
    return done


def verdict(m, world, f):
    """Three-valued truth of the quantifier-free sentence f at a world."""
    _, voc, true = _tables(m, f)[id(f)]
    if not voc <= m.lang[world]:
        return UNDEFINED
    return TRUE if world in true else FALSE


def check_forall(m, world, f, value, witness, rng, samples):
    """Checks the program's verdict `value` (and its witness text) for
    `forall #x . body` at a world, body quantifier-free."""
    body, var = f.body, f.var
    if not vocabulary(body) <= m.lang[world]:
        if value != UNDEFINED:
            raise CheckFailed(f"{value} where the body's vocabulary escapes "
                              f"the language of {world}")
        return
    if value == FALSE:
        if witness is None:
            raise CheckFailed("False quantifier without a witness")
        psi = parse(witness, m.agents)
        if not vocabulary(psi) <= m.lang[world]:
            raise CheckFailed(f"witness {witness} outside the language of "
                              f"{world}")
        got = verdict(m, world, subst_var(body, var, psi))
        if got != FALSE:
            raise CheckFailed(f"witness {witness} makes the body {got}")
    elif value == TRUE:
        local = [p for p in m.props if p in m.lang[world]]
        for _ in range(samples):
            psi = random_qf_sentence(rng, local, m.agents, ops=DOMAIN_OPS,
                                     max_depth=2)
            got = verdict(m, world, subst_var(body, var, psi))
            if got != TRUE:
                raise CheckFailed(f"True quantifier but instance {psi} is "
                                  f"{got}")
    else:
        raise CheckFailed(f"{value} where the body is defined at {world}")


def deep_k(agent, depth, leaf="p"):
    """K<agent> K<agent> ... leaf with `depth` operators, built without
    recursion."""
    f = Prop(leaf)
    for _ in range(depth):
        f = K(agent, f)
    return f


# (fixture, world, sentence, verdict), worked by hand from the fixtures:
#   M_barcan: s (L={p}, p true), t (L={p,q}, p,q true); K1 total on {s,t};
#             A1 = {p} at both.
#   M_unc:    s, t1 (L={p}, p true), t2 (L={p,q}, p,q true); K1 = s->t1,
#             s->t2; A1 = {p} everywhere.
HAND_WORKED = (
    ("M_barcan", "s", "p", TRUE),
    ("M_barcan", "s", "q", UNDEFINED),
    ("M_barcan", "t", "!q", FALSE),
    ("M_barcan", "s", "K1 p", TRUE),
    ("M_barcan", "s", "K1 q", UNDEFINED),
    ("M_barcan", "t", "K1 q", FALSE),       # q is Undefined at s
    ("M_barcan", "t", "A1 q", FALSE),
    ("M_barcan", "t", "X1 p", TRUE),
    ("M_barcan", "t", "X1 (p & q)", FALSE),
    ("M_barcan", "t", "!A1 q & p", TRUE),
    ("M_barcan", "s", "p & q", UNDEFINED),
    ("M_unc", "s", "K1 p", TRUE),
    ("M_unc", "t2", "K1 q", TRUE),           # no successors
    ("M_unc", "s", "K1 q", UNDEFINED),
    ("M_unc", "t1", "K1 !p", TRUE),
    ("M_unc", "t2", "A1 q", FALSE),
    ("M_unc", "s", "K1 K1 p", TRUE),
    ("M_unc", "s", "!X1 p", FALSE),
    ("M_unc", "s", "A1 (p & !p)", TRUE),
)


def self_test(fixtures):
    """Checks the evaluator on HAND_WORKED; fixtures maps a fixture name to
    its loaded structure."""
    for name, world, text, want in HAND_WORKED:
        m = fixtures[name]
        got = verdict(m, world, parse(text, m.agents))
        if got != want:
            raise CheckFailed(f"reference gives {got} for {text} at "
                              f"{name}.{world}, hand-worked {want}")
    got = verdict(fixtures["M_barcan"], "s", deep_k(1, 3000))
    if got != TRUE:
        raise CheckFailed(f"reference gives {got} for K1^3000 p at "
                          "M_barcan.s, hand-worked True")
    return len(HAND_WORKED) + 1

