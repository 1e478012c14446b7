"""Seeded random formula generation for sweeps, searches and tests."""

from .syntax import TOP, A, And, Forall, K, Not, Prop, Var, X, free_vars

__all__ = ["random_formula", "random_sentence", "random_qf_sentence",
           "random_open_formula", "TAUTOLOGY_TEMPLATES", "random_tautology"]

_DEFAULT_OPS = ("not", "and", "K", "A", "X")
_LEAF_PROB = 0.35  # the chance that a subformula above depth 0 is a leaf


def random_formula(rng, props, n_agents, *, ops=_DEFAULT_OPS, max_depth=3,
                   quantifier_prob=0.0, scope=(), allow_top=False):
    """Random formula over the given propositions; free variables are drawn
    from scope.  Depth, operators and quantifier density are configurable;
    deterministic for a given rng."""
    props = list(props)
    ops = list(ops)

    def leaf(scope):
        pool = list(props)
        pool.extend(f"#{v}" for v in scope)
        if allow_top:
            pool.append(None)
        pick = rng.choice(pool)
        if pick is None:
            return TOP
        if pick.startswith("#"):
            return Var(pick[1:])
        return Prop(pick)

    def go(depth, scope):
        if depth <= 0 or rng.random() < _LEAF_PROB:
            return leaf(scope)
        if quantifier_prob and rng.random() < quantifier_prob:
            var = rng.choice(["x", "y", "z"])
            return Forall(var, go(depth - 1, scope + (var,)))
        op = rng.choice(ops)
        if op == "not":
            return Not(go(depth - 1, scope))
        if op == "and":
            return And(go(depth - 1, scope), go(depth - 1, scope))
        agent = rng.randint(1, n_agents)
        ctor = {"K": K, "A": A, "X": X}[op]
        return ctor(agent, go(depth - 1, scope))

    return go(max_depth, tuple(scope))


def random_sentence(rng, props, n_agents, *, ops=_DEFAULT_OPS, max_depth=3,
                    quantifier_prob=0.2, allow_top=False):
    return random_formula(rng, props, n_agents, ops=ops, max_depth=max_depth,
                          quantifier_prob=quantifier_prob, scope=(),
                          allow_top=allow_top)


def random_qf_sentence(rng, props, n_agents, *, ops=_DEFAULT_OPS, max_depth=3,
                       allow_top=False):
    return random_formula(rng, props, n_agents, ops=ops, max_depth=max_depth,
                          quantifier_prob=0.0, scope=(), allow_top=allow_top)


def random_open_formula(rng, props, n_agents, var, *, ops=_DEFAULT_OPS,
                        max_depth=3, quantifier_prob=0.0):
    """Formula whose only free variable is var (and which mentions it)."""
    for _ in range(20):
        f = random_formula(rng, props, n_agents, ops=ops, max_depth=max_depth,
                           quantifier_prob=quantifier_prob, scope=(var,))
        if free_vars(f) == frozenset((var,)):
            return f
    f = random_formula(rng, props, n_agents, ops=ops, max_depth=max_depth,
                       scope=())
    return And(A(1, Var(var)), f)


# Propositional tautology shapes; instantiating the holes with arbitrary
# formulas yields Prop axiom instances.
TAUTOLOGY_TEMPLATES = (
    lambda f, g: Not(And(f, Not(f))),
    lambda f, g: Not(And(Not(f), f)),
    lambda f, g: Not(And(f, And(g, Not(f)))),
    lambda f, g: Not(And(And(f, g), Not(f))),
    lambda f, g: Not(And(And(f, g), Not(And(g, f)))),
    lambda f, g: Not(And(Not(And(f, f)), f)),
)


def random_tautology(rng, props, n_agents, *, ops=_DEFAULT_OPS, max_depth=2,
                     quantifier_prob=0.15):
    tpl = rng.choice(TAUTOLOGY_TEMPLATES)
    f = random_formula(rng, props, n_agents, ops=ops, max_depth=max_depth,
                       quantifier_prob=quantifier_prob, scope=())
    g = random_formula(rng, props, n_agents, ops=ops, max_depth=max_depth,
                       quantifier_prob=quantifier_prob, scope=())
    return tpl(f, g)
