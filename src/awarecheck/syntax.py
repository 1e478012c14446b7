"""Formula language: AST, concrete grammar, and substitution operators.

Core connectives are Top, Prop, Var, Not, And, the modal operators K/A/X and
the propositional quantifier Forall.  Everything else (Or, Implies, Iff,
Exists, AStar, APrime) is sugar that is erased at construction time, so a
single evaluator suffices downstream.
"""

import re
from dataclasses import dataclass

__all__ = [
    "Formula", "Top", "TOP", "Prop", "Var", "Not", "And", "K", "A", "X",
    "Forall", "Or", "Implies", "Iff", "Exists", "AStar", "APrime",
    "ParseError", "parse", "pretty", "vocabulary", "free_vars", "bound_vars",
    "is_sentence", "is_quantifier_free", "subformulas", "subst_var",
    "subst_prop", "swap_props", "map_props",
]


class Formula:
    """Base class for AST nodes.  Instances are immutable and hashable, and
    str() gives their concrete syntax."""

    __slots__ = ()

    def __str__(self):
        return pretty(self)


@dataclass(frozen=True)
class Top(Formula):
    """The vacuously true constant (the empty conjunction)."""


@dataclass(frozen=True)
class Prop(Formula):
    name: str


@dataclass(frozen=True)
class Var(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class K(Formula):
    agent: int
    body: Formula


@dataclass(frozen=True)
class A(Formula):
    agent: int
    body: Formula


@dataclass(frozen=True)
class X(Formula):
    agent: int
    body: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    body: Formula


TOP = Top()


# Derived connectives, desugared on construction.

def Or(left, right):
    return Not(And(Not(left), Not(right)))


def Implies(left, right):
    return Or(Not(left), right)


def Iff(left, right):
    return And(Implies(left, right), Implies(right, left))


def Exists(var, body):
    return Not(Forall(var, Not(body)))


def AStar(agent, body):
    """K_i(phi | !phi): phi is defined at every world agent i considers possible."""
    return K(agent, Or(body, Not(body)))


def APrime(agent, body):
    """K_i phi | K_i !K_i phi, the MR/HMS-style defined awareness operator."""
    return Or(K(agent, body), K(agent, Not(K(agent, body))))


def _children(f):
    """The immediate subformulas of f, left to right."""
    if isinstance(f, (Top, Prop, Var)):
        return ()
    if isinstance(f, And):
        return f.left, f.right
    if isinstance(f, (Not, K, A, X, Forall)):
        return f.body,
    raise TypeError(f"not a formula: {f!r}")


def _rebuild(f, sub, *args):
    """f with each immediate subformula g replaced by sub(g, *args)."""
    if isinstance(f, (Top, Prop, Var)):
        return f
    if isinstance(f, Not):
        return Not(sub(f.body, *args))
    if isinstance(f, And):
        return And(sub(f.left, *args), sub(f.right, *args))
    if isinstance(f, (K, A, X)):
        return type(f)(f.agent, sub(f.body, *args))
    if isinstance(f, Forall):
        return Forall(f.var, sub(f.body, *args))
    raise TypeError(f"not a formula: {f!r}")


def subformulas(f):
    """Yields f and every subformula, preorder."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        stack.extend(reversed(_children(g)))


def vocabulary(f):
    """The set of primitive propositions occurring in f.  Variables and Top
    contribute nothing."""
    return frozenset(g.name for g in subformulas(f) if isinstance(g, Prop))


def free_vars(f):
    if isinstance(f, Var):
        return frozenset((f.name,))
    out = frozenset().union(*map(free_vars, _children(f)))
    return out - {f.var} if isinstance(f, Forall) else out


def bound_vars(f):
    return frozenset(g.var for g in subformulas(f) if isinstance(g, Forall))


def is_sentence(f):
    return not free_vars(f)


def is_quantifier_free(f):
    return not any(isinstance(g, Forall) for g in subformulas(f))


def subst_var(f, x, psi):
    """f[x/psi]: replace free occurrences of the variable x by psi.

    psi must be a quantifier-free sentence (the quantifier domain), which
    rules out capture.
    """
    if not isinstance(psi, Formula):
        raise TypeError("replacement must be a formula")
    if not is_quantifier_free(psi):
        raise ValueError("replacement must be quantifier-free")
    if not is_sentence(psi):
        raise ValueError("replacement must be a sentence")
    return _subst_var(f, x, psi)


def _subst_var(f, x, psi):
    if isinstance(f, Var):
        return psi if f.name == x else f
    if isinstance(f, Forall) and f.var == x:
        return f
    return _rebuild(f, _subst_var, x, psi)


def map_props(f, mapping):
    """Replace every occurrence of each proposition p by mapping[p].

    Values may be propositions (renaming) or arbitrary formulas; propositions
    are never bound, so this is plain textual replacement.
    """
    if isinstance(f, Prop):
        g = mapping.get(f.name, f.name)
        return g if isinstance(g, Formula) else Prop(g)
    return _rebuild(f, map_props, mapping)


def subst_prop(f, q, psi):
    """f[q/psi]: replace every occurrence of the proposition q by psi.

    psi must be a quantifier-free sentence.
    """
    if not is_quantifier_free(psi):
        raise ValueError("replacement must be quantifier-free")
    if not is_sentence(psi):
        raise ValueError("replacement must be a sentence")
    return map_props(f, {q: psi})


def swap_props(f, p, p2):
    """Exchange the propositions p and p2 throughout f.  An involution."""
    return map_props(f, {p: p2, p2: p})


# --- concrete syntax -------------------------------------------------------
#
# true | p | #x | !f | f & f | f "|" f | f -> f | f <-> f
# K1 f | A1 f | X1 f | Astar1 f | Aprime1 f
# forall #x . f | exists #x . f | ( f )
#
# Precedence: unary > & > | > -> (right assoc) > <->.  A quantifier may start
# any operand and its body extends maximally to the right.

class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<modal>(Astar|Aprime|K|A|X)(\d+))"
    r"|(?P<var>\#[a-zA-Z][a-zA-Z0-9_]*)"
    r"|(?P<ident>[a-z][a-zA-Z0-9_]*)"
    r"|(?P<op><->|->|[!&|().])"
    r")"
)

_KEYWORDS = ("true", "forall", "exists")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}",
                             pos + len(text[pos:]) - len(stripped))
        if m.group("modal"):
            tokens.append(("modal", (m.group(2), int(m.group(3))), m.start(1)))
        elif m.group("var"):
            tokens.append(("var", m.group("var")[1:], m.start("var")))
        elif m.group("ident"):
            word = m.group("ident")
            kind = "kw" if word in _KEYWORDS else "prop"
            tokens.append((kind, word, m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, n_agents):
        self.tokens = tokens
        self.i = 0
        self.n_agents = n_agents

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, value, pos = self.next()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", pos)

    def expr(self):
        f = self.implies()
        while self.peek()[:2] == ("op", "<->"):
            self.next()
            f = Iff(f, self.implies())
        return f

    def implies(self):
        f = self.disj()
        if self.peek()[:2] == ("op", "->"):
            self.next()
            return Implies(f, self.implies())
        return f

    def disj(self):
        f = self.conj()
        while self.peek()[:2] == ("op", "|"):
            self.next()
            f = Or(f, self.conj())
        return f

    def conj(self):
        f = self.unary()
        while self.peek()[:2] == ("op", "&"):
            self.next()
            f = And(f, self.unary())
        return f

    def unary(self):
        kind, value, pos = self.peek()
        if kind == "op" and value == "!":
            self.next()
            return Not(self.unary())
        if kind == "modal":
            self.next()
            op, agent = value
            if agent < 1 or (self.n_agents is not None and agent > self.n_agents):
                raise ParseError(f"agent index {agent} out of range", pos)
            body = self.unary()
            ctor = {"K": K, "A": A, "X": X, "Astar": AStar, "Aprime": APrime}[op]
            return ctor(agent, body)
        if kind == "kw" and value in ("forall", "exists"):
            return self.quantified()
        return self.primary()

    def quantified(self):
        kind, value, pos = self.next()
        vkind, vname, vpos = self.next()
        if vkind != "var":
            raise ParseError("expected a #variable after quantifier", vpos)
        self.expect_op(".")
        body = self.expr()
        return Forall(vname, body) if value == "forall" else Exists(vname, body)

    def primary(self):
        kind, value, pos = self.next()
        if kind == "kw" and value == "true":
            return TOP
        if kind == "prop":
            return Prop(value)
        if kind == "var":
            return Var(value)
        if kind == "op" and value == "(":
            f = self.expr()
            self.expect_op(")")
            return f
        raise ParseError(f"unexpected token {value!r}", pos)


def parse(text, n_agents=None):
    """Parses text to a (desugared) Formula.

    n_agents, when given, bounds the agent indices accepted in modal
    operators.  Raises ParseError for malformed input and for nesting too
    deep for the recursive descent (about a thousand prefix operators).
    """
    parser = _Parser(_tokenize(text), n_agents)
    try:
        f = parser.expr()
    except RecursionError:
        raise ParseError("formula nested too deeply to parse", 0) from None
    kind, value, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"trailing input starting with {value!r}", pos)
    return f


def _needs_parens_under_unary(f):
    return isinstance(f, (And, Forall))


def pretty(f):
    """Prints f using base connectives only; parse(pretty(f)) == f."""
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Prop):
        return f.name
    if isinstance(f, Var):
        return "#" + f.name
    if isinstance(f, Not):
        body = pretty(f.body)
        return "!(%s)" % body if _needs_parens_under_unary(f.body) else "!" + body
    if isinstance(f, (K, A, X)):
        op = type(f).__name__
        body = pretty(f.body)
        if _needs_parens_under_unary(f.body):
            return f"{op}{f.agent} ({body})"
        return f"{op}{f.agent} {body}"
    if isinstance(f, And):
        left = pretty(f.left)
        if isinstance(f.left, Forall):
            left = "(%s)" % left
        right = pretty(f.right)
        if isinstance(f.right, (And, Forall)):
            right = "(%s)" % right
        return f"{left} & {right}"
    if isinstance(f, Forall):
        return f"forall #{f.var} . {pretty(f.body)}"
    raise TypeError(f"not a formula: {f!r}")
