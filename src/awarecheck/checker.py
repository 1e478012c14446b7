"""Three-valued truth evaluation with world-relative languages.

A sentence is Undefined at a world exactly when its vocabulary is not
contained in the world's language; otherwise the usual clauses apply, with
K_i phi counting an Undefined successor as a failure.  The propositional
quantifier ranges over an infinite set of quantifier-free sentences; it is
decided by quotienting that set to realizable truth profiles (see kernel),
and, for evaluation, further to one profile per vocabulary class and truth
map.  A structure's profiles are closed only when a quantified sentence or
a reader of the profiles needs them (see _context).

Every sentence is compiled once per proposition order into a formula
program, the one IR that both interpreters run and the witness search walks
(see kernel); a Corpus compiles many sentences into one program with a root
per sentence, which one kernel call evaluates.  The brute-force oracle
(direct_evaluate) stays independent.
"""

import weakref
from array import array
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

from . import _kernel_py
from ._kernel_py import (P_A, P_AND, P_FORALL, P_K, P_NOT, P_PROP, P_TOP,
                         P_VAR, P_X)
from .kernel import BACKEND, MASK_BITS, NativeKernel
from .model import AwarenessStructure
from .syntax import (TOP, A, And, Forall, K, Not, Prop, Top, Var, X,
                     is_quantifier_free)
from .syntax import _subst_var

__all__ = [
    "Truth", "QuantifierDomain", "KXA", "XA", "K_ONLY", "Profile",
    "evaluate", "evaluate_with_witness", "satisfying_worlds",
    "weak_counterexample", "weakly_valid", "realizable_profiles",
    "stabilization_depth", "forall_witness", "ForallProbe",
    "brute_force_forall", "qf_sentences", "evaluate_hr", "direct_evaluate",
    "OracleBudgetExceeded", "Corpus",
]

# the closure's modes (see _kernel_py.Kernel.close)
_FULL, _CLASSES = 0, 1
_OPCODES = {"not": P_NOT, "and": P_AND, "K": P_K, "A": P_A, "X": P_X}
_ALLOWED_OPS = frozenset(_OPCODES)
_MODAL = {P_K: K, P_A: A, P_X: X}
_MODAL_CODES = {op: code for code, op in _MODAL.items()}


class Truth(Enum):
    TRUE = "True"
    FALSE = "False"
    UNDEFINED = "Undefined"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class QuantifierDomain:
    """Operator set generating the quantifier's sentence domain.

    The domain consists of the quantifier-free sentences built from primitive
    propositions with the listed operators; `true` joins the domain only when
    include_top is set (by default the constant is not part of the generated
    language).
    """

    ops: frozenset = _ALLOWED_OPS
    include_top: bool = False

    def __post_init__(self):
        ops = frozenset(self.ops)
        object.__setattr__(self, "ops", ops)
        if not ops:
            raise ValueError("empty quantifier-domain operator set")
        if not ops <= _ALLOWED_OPS:
            raise ValueError(f"unknown operators: {sorted(ops - _ALLOWED_OPS)}")

    @cached_property
    def opcodes(self):
        """The profile closure's opcode mask: a bit per program opcode of
        the domain, P_TOP's with include_top."""
        return sum(1 << _OPCODES[op] for op in self.ops) | \
            self.include_top << P_TOP


KXA = QuantifierDomain()
XA = QuantifierDomain(ops=frozenset({"not", "and", "A", "X"}))
K_ONLY = QuantifierDomain(ops=frozenset({"not", "and", "K"}))


@dataclass
class Profile:
    """(vocabulary, partial world-truth map) of a quantifier-free sentence,
    with one realizing witness."""

    vocab: frozenset
    truth: dict
    witness: object


class OracleBudgetExceeded(RuntimeError):
    pass


class _Context:
    """Per-(structure, domain) evaluation state: one kernel over the
    structure's encoding and, once close() has run, the closed profiles and
    the closure's records and layers (copied out of C only when read).
    classes is None before the closure, else its mode, _CLASSES or _FULL."""

    def __init__(self, m, domain):
        self.domain = domain
        self.worlds = m.worlds
        self.props = m.props
        # the one backend choice: native when built and the masks fit
        native = BACKEND == "c" and len(m.worlds) <= MASK_BITS >= len(m.props)
        self.kernel = (NativeKernel if native else _kernel_py.Kernel)(
            *m.encoding())
        self.classes = self.records = self.layers = self.stab_depth = None
        self.dom = self.kernel.dom

    def close(self, classes):
        """Closes the profiles in the mode classes, _CLASSES or _FULL, unless
        they are closed at least that finely.  A full closure replaces a
        class closure, and with it the witnesses, which are keyed by record
        index."""
        if self.classes is None or classes < self.classes:
            self.records, self.layers = close_profiles(self.kernel,
                                                       self.domain, classes)
            self.classes = classes
            self.stab_depth = max(self.layers, default=0) \
                if classes == _FULL else None  # its readers close in full
            self._witnesses = {}

    def local_stab_depth(self, w):
        """Max witness layer among profiles whose vocabulary fits the
        world's language."""
        depth = 0
        for (vocab, *_), layer in zip(self.records, self.layers):
            if (self.dom(vocab) >> w) & 1 and layer > depth:
                depth = layer
        return depth

    def witness_formula(self, idx):
        got = self._witnesses.get(idx)
        if got is None:
            op, a1, a2, aux = self.records[idx][2:]
            if op == P_PROP:
                got = Prop(self.props[aux])
            elif op == P_TOP:
                got = TOP
            elif op == P_NOT:
                got = Not(self.witness_formula(a1))
            elif op == P_AND:
                got = And(self.witness_formula(a1), self.witness_formula(a2))
            else:
                got = _MODAL[op](aux + 1, self.witness_formula(a1))
            self._witnesses[idx] = got
        return got


def close_profiles(kernel, domain, classes):
    """(records, layers) of the domain's profile closure on a kernel, in the
    mode classes, whose quantifiers then range over the closed profiles."""
    return kernel.close(domain.opcodes, 4_000_000, classes)


def _context(m, domain, code=None, full=False):
    """m's context under the domain, closed as far as its caller needs: in
    full for a caller that reads the profiles themselves (full), over
    vocabulary classes before a program with quantifier slots (code) runs,
    which gives the same verdicts, and not at all otherwise."""
    # opcodes determines the domain, and an int hashes cheaply
    ctx = m._ctx_cache.get(domain.opcodes)
    if ctx is None:
        ctx = m._ctx_cache[domain.opcodes] = _Context(m, domain)
    if full:
        ctx.close(_FULL)
    elif code is not None and code[6]:
        ctx.close(_CLASSES)
    return ctx


# sentence -> {proposition order: _compile_program result}, weakly keyed
_COMPILED = weakref.WeakKeyDictionary()


def _compiled_for(m, cache, sentences):
    """_compile_program's (code, roots) for the sentences over m's
    proposition order and agent count, kept in cache under that pair."""
    key = m.props, m.agents
    compiled = cache.get(key)
    if compiled is None:
        compiled = cache[key] = _compile_program(
            sentences, {p: j for j, p in enumerate(m.props)}, m.agents)
    return compiled


def _program(m, f):
    """(code, roots) of the sentence f, compiled once per proposition order
    and agent count; ValueError if f is not a sentence of m."""
    return _compiled_for(m, _COMPILED.setdefault(f, {}), [f])


class Corpus:
    """Sentences compiled together into one program with a root per
    sentence, so that one kernel call per structure evaluates them all and
    their shared subformulas once."""

    def __init__(self, sentences):
        self.sentences = tuple(sentences)
        self._compiled = {}

    def false_masks(self, m, domain=KXA):
        """Per sentence, the mask of m's worlds where it is False: nonzero
        exactly when weak_counterexample finds a world, the one that
        _first_world names.  When some sentence is not a sentence of m,
        ValueError with the message weak_counterexample gives for the first
        such."""
        code, roots = _compiled_for(m, self._compiled, self.sentences)
        return _context(m, domain, code).kernel.run(code, roots)[2::3]


def _first_world(m, mask):
    """The world of mask's lowest set bit, None for an empty mask."""
    return m.worlds[(mask & -mask).bit_length() - 1] if mask else None


def _compile_program(sentences, pidx, n_agents):
    """Flattens sentences into one program: (code, roots).  code is the
    program in the kernels' format (see _kernel_py): four array('i')
    columns, per node the propositions it mentions and the slots it uses,
    and the slot count.  roots holds each sentence's node as an array('i').
    A subformula is compiled once per binding of its free variables, so
    sentences share their common subformulas, and each binder compiled gets
    a slot of its own.  Raises ValueError at the first sentence with a free
    variable, a proposition missing from pidx or an agent outside
    1..n_agents, with the message that sentence raises alone."""
    cols = ops, a1, a2, aux = [], [], [], []
    vocab, used = [], []
    index = {}
    nslots = 0
    agents = set()

    def go(g, slots):
        nonlocal nslots
        # a node is keyed on its formula and the slots it uses
        u = tuple(sorted(map(slots.__getitem__, g.fvars))) if g.fvars else ()
        key = (g, u) if u else g
        i = index.get(key)
        if i is not None:
            return i
        x = y = z = -1
        if isinstance(g, Prop):
            code, z = P_PROP, pidx[g.name]
        elif isinstance(g, Top):
            code = P_TOP
        elif isinstance(g, Var):
            code, z = P_VAR, slots[g.name]
        elif isinstance(g, Not):
            code, x = P_NOT, go(g.body, slots)
        elif isinstance(g, And):
            code, x, y = P_AND, go(g.left, slots), go(g.right, slots)
        elif isinstance(g, (K, A, X)):
            agents.add(g.agent)
            code, z = _MODAL_CODES[type(g)], g.agent - 1
            x = go(g.body, slots)
        elif isinstance(g, Forall):
            code, z = P_FORALL, nslots
            nslots += 1
            x = go(g.body, {**slots, g.var: z})
        else:
            raise TypeError(f"not a formula: {g!r}")
        i = index[key] = len(ops)
        for col, value in zip(cols, (code, x, y, z)):
            col.append(value)
        vocab.append(1 << z if code == P_PROP else vocab[x] | vocab[y]
                     if code == P_AND else vocab[x] if x >= 0 else 0)
        used.append(u)
        return i

    roots = array("i")
    for f in sentences:
        if f.fvars:
            raise ValueError(f"not a sentence; free variables "
                             f"{sorted(f.fvars)}")
        if not f.vocab <= pidx.keys():
            raise ValueError(f"formula mentions unknown propositions "
                             f"{sorted(f.vocab - pidx.keys())}")
        agents.clear()
        roots.append(go(f, {}))
        # a closed subformula met before is not walked again, but its
        # agents passed then, so the message stays the same
        low, high = min(agents, default=1), max(agents, default=0)
        if high > n_agents or low < 1:
            raise ValueError(
                f"unknown agent {high if high > n_agents else low}")
    code = (*(array("i", col) for col in cols), vocab, used, nslots)
    return code, roots


def _sentence_masks(m, f, domain):
    """Context plus whole-model (vocab, truth, False-world) masks for a
    sentence."""
    code, roots = _program(m, f)
    ctx = _context(m, domain, code)
    return (ctx, *ctx.kernel.run(code, roots))


def _at_world(m, world, f, domain):
    """(context, code, roots, world index) for the sentence f at a world,
    with the context closed as far as f's program needs."""
    code, roots = _program(m, f)
    ctx = _context(m, domain, code)
    if world not in m.worlds:
        raise ValueError(f"unknown world {world!r}")
    return ctx, code, roots, m.worlds.index(world)


def evaluate(m, world, f, domain=KXA):
    """Three-valued truth of the sentence f at a world."""
    ctx, code, roots, w = _at_world(m, world, f, domain)
    return _truth_at(ctx, w, *ctx.kernel.run(code, roots)[:2])


def evaluate_with_witness(m, world, f, domain=KXA):
    """(evaluate's value, forall_witness's sentence) for f at a world, from
    one kernel run."""
    ctx, code, roots, w = _at_world(m, world, f, domain)
    if not code[6]:  # every binder has a slot: no quantifier, no witness
        return _truth_at(ctx, w, *ctx.kernel.run(code, roots)[:2]), None
    return _quantifier_witness(ctx, code, roots[0], w)


def satisfying_worlds(m, f, domain=KXA):
    """Worlds where the sentence f is True, in model order."""
    ctx, vocab, truth, _ = _sentence_masks(m, f, domain)
    mask = ctx.dom(vocab) & truth
    return [w for j, w in enumerate(ctx.worlds) if (mask >> j) & 1]


def weak_counterexample(m, f, domain=KXA):
    """First world where f is False, or None when f is weakly valid in m
    (True or Undefined everywhere)."""
    return _first_world(m, _sentence_masks(m, f, domain)[3])


def weakly_valid(m, f, domain=KXA):
    return weak_counterexample(m, f, domain) is None


def realizable_profiles(m, domain=KXA):
    """Every (vocabulary, truth map) realized by a sentence of the domain,
    in fixpoint discovery order, each with a minimal-depth witness."""
    ctx = _context(m, domain, full=True)
    out = []
    for idx, (vocab, truth, *_) in enumerate(ctx.records):
        vset = frozenset(ctx.props[j] for j in range(len(ctx.props))
                         if (vocab >> j) & 1)
        d = ctx.dom(vocab)
        tmap = {w: bool((truth >> j) & 1)
                for j, w in enumerate(ctx.worlds) if (d >> j) & 1}
        out.append(Profile(vset, tmap, ctx.witness_formula(idx)))
    return out


def stabilization_depth(m, domain=KXA):
    """Least d such that depth-<=d sentences already realize every profile."""
    return _context(m, domain, full=True).stab_depth


def forall_witness(m, world, f, domain=KXA):
    """A concrete quantifier-free sentence explaining the verdict through a
    failed (or, under a negation, established) quantifier: for a False
    `forall x phi` the instance making phi fail, also when the quantifier is
    buried under negation, conjunction or a refuted K/X.  None when no
    quantifier is responsible."""
    ctx, code, roots, w = _at_world(m, world, f, domain)
    return _quantifier_witness(ctx, code, roots[0], w)[1] if code[6] else None


def _truth_at(ctx, w, vocab, truth):
    if not (ctx.dom(vocab) >> w) & 1:
        return Truth.UNDEFINED
    return Truth.TRUE if (truth >> w) & 1 else Truth.FALSE


def _quantifier_witness(ctx, code, root, w):
    """(root's value at world w, its witness or None): the witness search
    from node root of the program code at w.  One run over the program's
    closed nodes gives their values and, per quantifier among them and per
    world where it is False, its first falsifying profile; then a
    depth-first walk from root down the nodes outside every quantifier, into
    a negation's body and into the False parts of a False conjunction or
    K/X, at each successor in turn."""
    op, a1, a2, aux, _, used, _ = code
    n = ctx.kernel.n_worlds
    closed = array("i", [i for i, u in enumerate(used) if not u])
    falsifiers = array("q", bytes(8 * n * len(op)))
    out = ctx.kernel.run(code, closed, falsifiers)
    values = dict(zip(closed, zip(out[::3], out[1::3])))
    verdict = _truth_at(ctx, w, *values[root])
    stack = [(root, w)]
    while stack:
        i, w = stack.pop()
        value = _truth_at(ctx, w, *values[i])
        if op[i] == P_NOT and value is not Truth.UNDEFINED:
            stack.append((a1[i], w))
            continue
        if value is not Truth.FALSE:
            continue
        if op[i] == P_FORALL:
            return verdict, ctx.witness_formula(falsifiers[i * n + w])
        if op[i] == P_AND:
            nexts = [(a1[i], w), (a2[i], w)]
        elif op[i] in (P_K, P_X):
            succ = ctx.kernel.succ[aux[i]][w]
            nexts = [(a1[i], u) for u in range(n) if succ >> u & 1]
        else:
            continue
        stack += [(j, u) for j, u in reversed(nexts)
                  if _truth_at(ctx, u, *values[j]) is Truth.FALSE]
    return verdict, None


# --- quantifier-free sentence enumeration and the brute-force oracle --------

def qf_sentences(props, n_agents, domain, depth, cap=None):
    """All quantifier-free sentences over the given propositions with AST
    depth <= depth, deduplicated, in deterministic layered order."""
    out = [Prop(p) for p in props]
    if domain.include_top:
        out.append(TOP)
    seen = set(out)

    def push(g, new):
        if g not in seen:
            if cap is not None and len(seen) >= cap:
                raise OracleBudgetExceeded(
                    f"sentence enumeration exceeded cap {cap}")
            seen.add(g)
            new.append(g)

    last = list(out)
    ops = domain.ops
    modal = [op for op in (K, A, X) if op.__name__ in ops]
    for _ in range(depth):
        new = []
        for f in last:
            if "not" in ops:
                push(Not(f), new)
            for i in range(1, n_agents + 1):
                for op in modal:
                    push(op(i, f), new)
        if "and" in ops:
            for f in last:
                for g in out:
                    push(And(f, g), new)
                    push(And(g, f), new)
                for g in last:
                    push(And(f, g), new)
        out.extend(new)
        last = new
        if not new:
            break
    return out


def direct_evaluate(m, world, f, domain=KXA, forall_depth=2, memo=None,
                    cap=200_000):
    """Straightforward per-world recursive evaluator; quantifiers are
    brute-forced by substituting every domain sentence up to forall_depth.

    Independent of the profile machinery; exact whenever the depth covers
    every realizable profile (see brute_force_forall.stabilized).
    """
    _program(m, f)
    state = _oracle_state(m, memo, cap, None if is_quantifier_free(f) else
                          (domain.opcodes, forall_depth))
    return _direct(m, m.worlds.index(world), f, domain, forall_depth, state)


def _oracle_state(m, memo, cap, scope):
    if "oracle_succs" not in m._ctx_cache:
        m._ctx_cache["oracle_succs"] = {
            i: {w: sorted(m.worlds.index(t) for s, t in m.rel[i] if s == w)
                for w in m.worlds} for i in range(1, m.agents + 1)}
    state = {} if memo is None else memo
    # (formula, world) -> value, one memo per scope: a quantifier's value
    # depends on the domain and the depth, so a caller passes them, or None
    # for quantifier-free formulas, which share theirs
    state["memo"] = state.setdefault("memos", {}).setdefault(scope, {})
    state.update(count=0, cap=cap)
    return state


def _direct(m, widx, f, domain, depth, state):
    value = state["memo"].get((f, widx))
    if value is not None:
        return value
    world = m.worlds[widx]
    lang = m.lang[world]
    if not f.vocab <= lang:
        value = Truth.UNDEFINED
    elif isinstance(f, Top):
        value = Truth.TRUE
    elif isinstance(f, Prop):
        value = Truth.TRUE if f.name in m.val[world] else Truth.FALSE
    elif isinstance(f, Var):
        raise ValueError("free variable in direct evaluation")
    elif isinstance(f, Not):
        sub = _direct(m, widx, f.body, domain, depth, state)
        value = Truth.FALSE if sub is Truth.TRUE else Truth.TRUE
    elif isinstance(f, And):
        lt = _direct(m, widx, f.left, domain, depth, state)
        rt = _direct(m, widx, f.right, domain, depth, state)
        value = Truth.TRUE if (lt is Truth.TRUE and rt is Truth.TRUE) \
            else Truth.FALSE
    elif isinstance(f, K):
        value = Truth.TRUE
        for u in m._ctx_cache["oracle_succs"][f.agent][world]:
            if _direct(m, u, f.body, domain, depth, state) is not Truth.TRUE:
                value = Truth.FALSE
                break
    elif isinstance(f, A):
        value = Truth.TRUE \
            if f.body.vocab <= m.aware[f.agent][world] else Truth.FALSE
    elif isinstance(f, X):
        value = _direct(m, widx, A(f.agent, f.body), domain, depth, state)
        if value is Truth.TRUE:
            value = _direct(m, widx, K(f.agent, f.body), domain, depth, state)
    elif isinstance(f, Forall):
        value = Truth.TRUE
        for psi in _oracle_corpus(m, lang, domain, depth, state):
            state["count"] += 1
            if state["count"] > state["cap"]:
                raise OracleBudgetExceeded(
                    f"brute-force instance cap {state['cap']} exceeded")
            inst = _subst_var(f.body, f.var, psi)
            if _direct(m, widx, inst, domain, depth, state) is not Truth.TRUE:
                value = Truth.FALSE
                break
    else:
        raise TypeError(f"not a formula: {f!r}")
    state["memo"][f, widx] = value
    return value


def _oracle_corpus(m, lang, domain, depth, state):
    """qf_sentences over lang's propositions in m's order, shared by every
    structure with the same key; the cap is part of the key, so a smaller
    cap still raises.  The cache is bounded because a corpus can hold up to
    cap sentences."""
    return _qf_corpus(tuple(p for p in m.props if p in lang), m.agents,
                      domain, depth, state["cap"])


_qf_corpus = lru_cache(maxsize=64)(qf_sentences)


@dataclass
class ForallProbe:
    value: Truth
    stabilized: bool
    depth: int
    instances: int
    witness: object


def brute_force_forall(m, world, body, var, depth, domain=KXA, cap=200_000,
                       memo=None):
    """Decides `forall var . body` at a world by enumerating every domain
    sentence of AST depth <= depth and checking the substitution instances.

    stabilized reports when the verdict is exact: a False verdict with a
    concrete witness certifies itself (for bodies without nested
    quantifiers), a True verdict is exact once the depth covers every
    realizable profile over the world's language, and any verdict is exact
    once the depth covers the whole fixpoint.
    """
    if body.fvars != {var}:
        raise ValueError(f"body must have exactly {var!r} free, has "
                         f"{sorted(body.fvars)}")
    _program(m, Forall(var, body))
    ctx = _context(m, domain, full=True)
    if world not in m.worlds:
        raise ValueError(f"unknown world {world!r}")
    lang = m.lang[world]
    widx = m.worlds.index(world)
    nested = not is_quantifier_free(body)
    global_cover = ctx.stab_depth <= depth
    local_cover = global_cover or ctx.local_stab_depth(widx) <= depth

    def stab(value):
        if value is Truth.UNDEFINED or global_cover:
            return True
        if nested:
            return False
        if value is Truth.FALSE:
            return True
        return local_cover

    state = _oracle_state(m, memo, cap, (domain.opcodes, depth) if nested
                          else None)
    if not body.vocab <= lang:
        return ForallProbe(Truth.UNDEFINED, stab(Truth.UNDEFINED), depth, 0,
                           None)
    n = 0
    for psi in _oracle_corpus(m, lang, domain, depth, state):
        n += 1
        if n > cap:
            raise OracleBudgetExceeded(f"instance cap {cap} exceeded")
        inst = _subst_var(body, var, psi)
        if _direct(m, widx, inst, domain, depth, state) is not Truth.TRUE:
            return ForallProbe(Truth.FALSE, stab(Truth.FALSE), depth, n, psi)
    return ForallProbe(Truth.TRUE, stab(Truth.TRUE), depth, n, None)


# --- constant-language (single global language) semantics -----------------

def evaluate_hr(m, world, f, domain=KXA):
    """Truth in the semantics without world-relative languages: f evaluated
    in m with every world's language set to the full proposition set, so
    every sentence is defined everywhere, awareness is read off the
    awareness vocabularies, and the quantifier ranges over all domain
    sentences.  Never Undefined."""
    view = m._ctx_cache.get("hr")
    if view is None:
        n, pwm, *rest = m.encoding()
        every = ((1 << n) - 1,) * len(pwm)
        view = m._ctx_cache["hr"] = AwarenessStructure._of(
            m.agents, m.props, m.worlds, (n, every, *rest))
    return evaluate(view, world, f, domain)
