"""Axiom schemas, inference rules, named Hilbert systems, proof checking and
the model-sweep soundness harness.

Schema recognition is first-order syntactic on desugared ASTs: metavariables
stand for whole formulas (MetaF), agent indices (an agent given as a str) or
bound-variable names (a Var or Forall name starting with '?'), and every
occurrence of a metavariable must match the same concrete material.  Prop is
recognized by truth-tabling the formula over its maximal subformulas other
than Top, Not and And.

Sweeps judge every sentence through checker.Corpus: one kernel call per
structure for all the instances or rule conclusions drawn on it.
"""

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress

from .checker import K_ONLY, KXA, XA, Corpus, _first_world
from .fuzz import random_formula, random_qf_sentence, random_tautology
from .syntax import (TOP, A, And, AStar, Forall, Formula, Iff, Implies, K,
                     Not, Prop, Top, Var, X, bound_vars, free_vars,
                     is_quantifier_free, is_sentence, map_props, parse,
                     pretty, subformulas, subst_var, vocabulary)
from .syntax import _EMPTY, _children, _rebuild, _set, _subst_var

__all__ = [
    "MetaF", "SCHEMA_NAMES", "RULE_NAMES", "match_axiom", "instantiate",
    "AxiomSystem", "SYSTEMS", "parse_system", "ProofLine", "ProofScript",
    "ProofOutcome", "check_proof", "proof_script_from_dict",
    "SweepViolation", "SweepReport", "soundness_sweep",
    "search_schema_violation", "schema_instances",
]


class MetaF(Formula):
    """Formula metavariable inside a schema pattern."""

    __slots__ = _fields = ("name",)

    def _init(self, name):
        _set(self, "name", name)
        return _EMPTY, _EMPTY


_I = "i"
_XV = "?x"


def _label(f):
    """The field of f that is not a subformula: its agent, name or bound
    variable; None for Top, Not and And."""
    fields = f.__reduce__()[1]
    return fields[0] if fields and not isinstance(fields[0], Formula) else None


def _meta(pat):
    """The metavariable that pat's label is, where the pattern leaves it
    open: an agent given as a str, or a Var or Forall name starting with
    '?'.  None where the label must match as it stands."""
    label = _label(pat)
    if isinstance(pat, (K, A, X)):
        return label if isinstance(label, str) else None
    if isinstance(pat, (Var, Forall)) and label.startswith("?"):
        return label
    return None


def _match(pat, f, b):
    """Extends the bindings b so that pat becomes f; False when no binding
    does."""
    if isinstance(pat, MetaF):
        return b.setdefault(pat.name, f) is f
    if type(pat) is not type(f):
        return False
    meta = _meta(pat)
    want = _label(pat) if meta is None else b.setdefault(meta, _label(f))
    return want == _label(f) and all(
        _match(p, g, b) for p, g in zip(_children(pat), _children(f)))


def _build(pat, b):
    if isinstance(pat, MetaF):
        return b[pat.name]
    meta = _meta(pat)
    if meta is not None:  # a label is its node's first field
        pat = type(pat)(b[meta], *_children(pat))
    return _rebuild(pat, _build, b)


# --- schema table -----------------------------------------------------------

@dataclass(frozen=True)
class Schema:
    """A schema's pattern and metavariables; side(bindings, include_top)
    further tests a match, and build(bindings) makes an instance where
    _build cannot make it from the pattern."""

    name: str
    pattern: Formula = None
    side: object = None
    build: object = None
    metas: tuple = ()


def _prop_tautology(f):
    """Truth-tables f over its maximal subformulas other than Top, Not and
    And, read as propositional letters.  All 2**n rows at once: bit r of a
    value is its truth in row r, where letter k takes bit k of r."""
    letters, stack = {}, [f]
    while stack:
        g = stack.pop()
        if isinstance(g, (Not, And)):
            stack.extend(_children(g))
        elif not isinstance(g, Top):
            letters.setdefault(g, len(letters))
    if len(letters) > 20:
        raise ValueError("too many distinct atoms for truth-tabling")
    rows = 1 << len(letters)
    full = (1 << rows) - 1
    # letter k is false in 2**k rows, then true in 2**k, and so on: the
    # block of 2**(k+1) bits repeated, which full // (2**(2**(k+1)) - 1)
    # spaces out
    column = {g: full // ((1 << (2 << k)) - 1) *
              (((1 << (1 << k)) - 1) << (1 << k))
              for g, k in letters.items()}

    def value(g):
        if isinstance(g, Not):
            return full ^ value(g.body)
        if isinstance(g, And):
            return value(g.left) & value(g.right)
        return full if isinstance(g, Top) else column[g]

    return value(f) == full


def _agpp(op):
    """AGPP's side condition and builder for the awareness operator op (A,
    or AStar for AGPP_star).  The canonical right-hand side conjoins op_i p
    over phi's sorted vocabulary, nested to the right; Top when it is
    empty."""
    def rhs(b):
        parts = [op(b[_I], Prop(p)) for p in sorted(vocabulary(b["phi"]))]
        acc = parts.pop() if parts else TOP
        for part in reversed(parts):
            acc = And(part, acc)
        return acc
    return (lambda b, include_top: b["rhs"] is rhs(b),
            lambda b: Iff(op(b[_I], b["phi"]), rhs(b)))


def _side_1forall(b, include_top):
    # inst is phi[x/psi] for one psi, or phi itself when x is not free in it
    if not _match(_subst_var(b["phi"], b[_XV], MetaF("psi")), b["inst"], b):
        return False
    psi = b.get("psi")
    if psi is None:
        return True
    if not is_quantifier_free(psi) or not is_sentence(psi):
        return False
    return include_top or \
        not any(isinstance(g, Top) for g in subformulas(psi))


def _build_1forall(b):
    return Implies(Forall(b[_XV], b["phi"]),
                   subst_var(b["phi"], b[_XV], b["psi"]))


def _side_nforall(b, include_top):
    return b[_XV] not in b["phi"].fvars


def _schemas():
    phi, psi = MetaF("phi"), MetaF("psi")
    xv = Var(_XV)
    table = {}

    def put(name, *args, **kwargs):
        table[name] = Schema(name, *args, **kwargs)

    put("Prop")
    put("AGPP", Iff(A(_I, phi), MetaF("rhs")), *_agpp(A), metas=(_I, "phi"))
    put("KA", Implies(A(_I, phi), K(_I, A(_I, phi))), metas=(_I, "phi"))
    put("NKA", Implies(Not(A(_I, phi)), K(_I, Not(A(_I, phi)))),
        metas=(_I, "phi"))
    put("K", Implies(And(K(_I, phi), K(_I, Implies(phi, psi))), K(_I, psi)),
        metas=(_I, "phi", "psi"))
    put("T", Implies(K(_I, phi), phi), metas=(_I, "phi"))
    put("4", Implies(K(_I, phi), K(_I, K(_I, phi))), metas=(_I, "phi"))
    put("5", Implies(Not(K(_I, phi)), K(_I, Not(K(_I, phi)))),
        metas=(_I, "phi"))
    put("A0", Iff(X(_I, phi), And(K(_I, phi), A(_I, phi))),
        metas=(_I, "phi"))
    put("1_forall",
        pattern=Implies(Forall(_XV, phi), MetaF("inst")),
        side=_side_1forall, build=_build_1forall,
        metas=(_XV, "phi:open", "psi:qf"))
    put("K_forall",
        Implies(Forall(_XV, Implies(phi, psi)),
                Implies(Forall(_XV, phi), Forall(_XV, psi))),
        metas=(_XV, "phi:open", "psi:open"))
    put("N_forall", Implies(phi, Forall(_XV, phi)), side=_side_nforall,
        metas=(_XV, "phi"))
    put("Barcan", Implies(Forall(_XV, K(_I, phi)), K(_I, Forall(_XV, phi))),
        metas=(_I, _XV, "phi:open"))
    put("K_X", Implies(And(X(_I, phi), X(_I, Implies(phi, psi))), X(_I, psi)),
        metas=(_I, "phi", "psi"))
    put("T_X", Implies(X(_I, phi), phi), metas=(_I, "phi"))
    put("4_X", Implies(X(_I, phi), X(_I, X(_I, phi))), metas=(_I, "phi"))
    put("5_X", Implies(And(Not(X(_I, phi)), A(_I, phi)),
                       X(_I, Not(X(_I, phi)))), metas=(_I, "phi"))
    put("XA", Implies(A(_I, phi), X(_I, A(_I, phi))), metas=(_I, "phi"))
    put("A0_X", Implies(X(_I, phi), A(_I, phi)), metas=(_I, "phi"))
    put("FA_X",
        Implies(Not(Forall(_XV, A(_I, xv))),
                X(_I, Not(Forall(_XV, A(_I, xv))))),
        metas=(_I, _XV))
    put("Barcan_X", Implies(Forall(_XV, X(_I, phi)), X(_I, Forall(_XV, phi))),
        metas=(_I, _XV, "phi:open"))
    put("Barcan_star_X",
        Implies(And(A(_I, Forall(_XV, phi)),
                    Forall(_XV, Implies(A(_I, xv), X(_I, phi)))),
                X(_I, Implies(Forall(_XV, A(_I, xv)), Forall(_XV, phi)))),
        metas=(_I, _XV, "phi:open"))
    put("FA_star_X",
        Implies(Forall(_XV, Not(A(_I, xv))),
                X(_I, Forall(_XV, Not(A(_I, xv))))),
        metas=(_I, _XV))
    put("AGPP_star", Iff(AStar(_I, phi), MetaF("rhs")), *_agpp(AStar),
        metas=(_I, "phi"))
    put("XA_star", Implies(AStar(_I, phi), K(_I, AStar(_I, phi))),
        metas=(_I, "phi"))
    put("A0_star", Implies(K(_I, phi), AStar(_I, phi)), metas=(_I, "phi"))
    put("5_star", Implies(And(Not(K(_I, phi)), AStar(_I, phi)),
                          K(_I, Not(K(_I, phi)))), metas=(_I, "phi"))
    put("Barcan_star",
        Implies(And(AStar(_I, Forall(_XV, phi)),
                    Forall(_XV, Implies(AStar(_I, xv), K(_I, phi)))),
                K(_I, Implies(Forall(_XV, AStar(_I, xv)),
                              Forall(_XV, phi)))),
        metas=(_I, _XV, "phi:open"))
    put("FA_star",
        Implies(Forall(_XV, Not(AStar(_I, xv))),
                K(_I, Forall(_XV, Not(AStar(_I, xv))))),
        metas=(_I, _XV))
    return table


_SCHEMAS = _schemas()
SCHEMA_NAMES = tuple(_SCHEMAS)


def match_axiom(f, name, include_top=False):
    """Bindings when the sentence f instantiates the named schema, else
    None.  Never raises on a non-instance."""
    schema = _SCHEMAS.get(name)
    if schema is None:
        raise KeyError(f"unknown axiom schema {name!r}")
    if name == "Prop":
        return {"tautology": True} if _prop_tautology(f) else None
    b = {}
    if not _match(schema.pattern, f, b):
        return None
    if schema.side is not None and not schema.side(b, include_top):
        return None
    return b


def instantiate(name, bindings):
    """Emit the schema instance determined by the metavariable bindings."""
    schema = _SCHEMAS.get(name)
    if schema is None:
        raise KeyError(f"unknown axiom schema {name!r}")
    if schema.build is not None:
        return schema.build(bindings)
    if schema.pattern is None:
        raise ValueError(f"schema {name} has no instantiator")
    return _build(schema.pattern, bindings)


# --- rules ------------------------------------------------------------------

RULE_NAMES = ("MP", "Gen_K", "Gen_X", "Gen_star", "Gen_forall")


def _gen_conclusion(name, agent, phi):
    """What Gen_K, Gen_X or Gen_star concludes from the premise phi."""
    if name == "Gen_K":
        return K(agent, phi)
    if name == "Gen_X":
        return Implies(A(agent, phi), X(agent, phi))
    return Implies(AStar(agent, phi), K(agent, phi))


def _gen_forall_conclusion(phi, q):
    """forall #x . phi with #x for the proposition q, where no binder of phi
    is named x, so that none captures it."""
    x, bound = "z", bound_vars(phi)
    while x in bound:
        x += "0"
    return Forall(x, map_props(phi, {q: Var(x)}))


def _check_rule(name, premises, conclusion, agent=None, q=None, x=None):
    """None when the application is correct, else a reason string."""
    if name == "MP":
        if len(premises) != 2:
            return "MP takes two premises"
        if premises[1] is not Implies(premises[0], conclusion):
            return "second premise is not (first premise -> conclusion)"
        return None
    if name in ("Gen_K", "Gen_X", "Gen_star"):
        if len(premises) != 1:
            return f"{name} takes one premise"
        if agent is None:
            return f"{name} needs an agent"
        if conclusion is not _gen_conclusion(name, agent, premises[0]):
            return f"conclusion does not match {name} of the premise"
        return None
    if name == "Gen_forall":
        if len(premises) != 1:
            return "Gen_forall takes one premise"
        if q is None or x is None:
            return "Gen_forall needs the proposition q and the variable x"
        if not isinstance(conclusion, Forall) or conclusion.var != x:
            return f"conclusion is not a universal over #{x}"
        body = conclusion.body
        if q in vocabulary(body):
            return f"{q} must be fully replaced in the conclusion body"
        if subst_var(body, x, Prop(q)) is not premises[0]:
            return "premise is not conclusion-body[x/q]"
        return None
    return f"unknown rule {name!r}"


# --- systems ----------------------------------------------------------------

@dataclass(frozen=True)
class AxiomSystem:
    name: str
    schemas: frozenset
    rules: frozenset
    modal_ops: frozenset
    quantifiers: bool
    domain: object

    @cached_property
    def ops(self):
        """The connectives of the system's language, as fuzz takes them."""
        return tuple(op for op in ("not", "and", "K", "A", "X")
                     if op in ("not", "and") or op in self.modal_ops)

    def allows(self, f):
        """None when f lies in the system's language, else a reason."""
        for g in subformulas(f):
            op = type(g).__name__  # as modal_ops names the modal operators
            if isinstance(g, (K, A, X)) and op not in self.modal_ops:
                return f"operator {op} not in the system language"
            if isinstance(g, Forall) and not self.quantifiers:
                return "quantifier not in the system language"
        return None


def _system(name, schemas, rules, modal_ops, quantifiers, domain):
    return AxiomSystem(name, frozenset(schemas), frozenset(rules),
                       frozenset(modal_ops), quantifiers, domain)


_FORALL_CORE = ("1_forall", "K_forall", "N_forall")

SYSTEMS = {
    # The two systems for structures with one global language.
    "AX_KXAforall": _system(
        "AX_KXAforall",
        ("Prop", "AGPP", "KA", "NKA", "K", "A0", *_FORALL_CORE, "Barcan"),
        ("MP", "Gen_K", "Gen_forall"), ("K", "A", "X"), True, KXA),
    "AX_XAforall": _system(
        "AX_XAforall",
        ("Prop", "AGPP", "XA", "FA_X", "K_X", "A0_X", *_FORALL_CORE,
         "Barcan_X"),
        ("MP", "Gen_X", "Gen_forall"), ("A", "X"), True, XA),
    # Extended (world-relative language) systems.
    "AXe_XAforall": _system(
        "AXe_XAforall",
        ("Prop", "AGPP", "XA", "FA_star_X", "K_X", "A0_X", *_FORALL_CORE,
         "Barcan_star_X"),
        ("MP", "Gen_X", "Gen_forall"), ("A", "X"), True, XA),
    "AXe_KXAAstarforall": _system(
        "AXe_KXAAstarforall",
        ("Prop", "AGPP", "KA", "K", "A0", *_FORALL_CORE, "Barcan_star",
         "AGPP_star", "A0_star", "FA_star"),
        ("MP", "Gen_star", "Gen_forall"), ("K", "A", "X"), True, KXA),
    "AXe_KAstarforall": _system(
        "AXe_KAstarforall",
        ("Prop", "AGPP_star", "FA_star", "K", "A0_star", *_FORALL_CORE,
         "Barcan_star"),
        ("MP", "Gen_star", "Gen_forall"), ("K",), True, K_ONLY),
    "AXe_KAstar": _system(
        "AXe_KAstar",
        ("Prop", "AGPP_star", "K", "A0_star"),
        ("MP", "Gen_star"), ("K",), False, K_ONLY),
}

_EXTENSION_BUNDLES = {
    "T45": ("T", "4", "5"),
    "TX4X5X": ("T_X", "4_X", "5_X"),
    "T45star": ("T", "4", "5_star"),
}


def parse_system(spec):
    """Resolves a system spec like 'AXe_XAforall+TX4X5X'.

    The suffix is a bundle name (T45, TX4X5X, T45star) or a comma-separated
    list of schema names.
    """
    base, _, suffix = spec.partition("+")
    if base not in SYSTEMS:
        raise KeyError(f"unknown axiom system {base!r}")
    system = SYSTEMS[base]
    if not suffix:
        return system
    extra = _EXTENSION_BUNDLES.get(suffix)
    if extra is None:
        extra = tuple(tok for tok in suffix.split(",") if tok)
        for tok in extra:
            if tok not in _SCHEMAS:
                raise KeyError(f"unknown schema {tok!r} in extension")
    return AxiomSystem(spec, system.schemas | frozenset(extra), system.rules,
                       system.modal_ops, system.quantifiers, system.domain)


# --- proof scripts -----------------------------------------------------------

@dataclass(frozen=True)
class ProofLine:
    formula: Formula
    axiom: str = None
    rule: str = None
    premises: tuple = ()
    agent: int = None
    q: str = None
    x: str = None


@dataclass(frozen=True)
class ProofScript:
    system: str
    lines: tuple


@dataclass(frozen=True)
class ProofOutcome:
    accepted: bool
    line: int = None
    reason: str = None

    def __str__(self):
        if self.accepted:
            return "accepted"
        return f"rejected at line {self.line}: {self.reason}"


# exact types: to isinstance, a JSON true would pass for the int 1
_JUST_TYPES = {"axiom": str, "rule": str, "from": list, "agent": int,
               "q": str, "x": str}


def proof_script_from_dict(d, n_agents=None):
    """The proof script a JSON object describes; ValueError for any
    malformed shape, ParseError for a formula that does not parse."""
    if not isinstance(d, dict) or not isinstance(d.get("system"), str) or \
            not isinstance(d.get("lines"), list):
        raise ValueError("malformed proof script: expected an object with a "
                         "system name and a list of lines")
    if n_agents is not None and type(n_agents) is not int:
        raise ValueError(f"malformed proof script: agents {n_agents!r}")
    lines = []
    for no, entry in enumerate(d["lines"], start=1):
        just = entry.get("just", {}) if isinstance(entry, dict) else None
        if not isinstance(just, dict) or \
                not isinstance(entry.get("formula"), str) or \
                any(just.get(key) is not None and type(just[key]) is not kind
                    for key, kind in _JUST_TYPES.items()):
            raise ValueError(f"malformed proof script: line {no} needs a "
                             "formula string and a well-typed justification")
        formula = parse(entry["formula"], n_agents)
        if "axiom" in just:
            lines.append(ProofLine(formula, axiom=just["axiom"]))
        elif "rule" in just:
            lines.append(ProofLine(
                formula, rule=just["rule"],
                premises=tuple(just.get("from", ())),
                agent=just.get("agent"), q=just.get("q"), x=just.get("x")))
        else:
            lines.append(ProofLine(formula))
    return ProofScript(d["system"], tuple(lines))


def check_proof(script, system=None, include_top=False):
    """Accepts iff every line is an axiom instance of the system or follows
    from earlier lines by a system rule with its side conditions."""
    if system is None:
        system = parse_system(script.system)
    elif isinstance(system, str):
        system = parse_system(system)
    for no, line in enumerate(script.lines, start=1):
        if not is_sentence(line.formula):
            return ProofOutcome(False, no, "line formula is not a sentence")
        bad = system.allows(line.formula)
        if bad is not None:
            return ProofOutcome(False, no, bad)
        if line.axiom is not None:
            if line.axiom not in _SCHEMAS:
                return ProofOutcome(False, no,
                                    f"unknown axiom {line.axiom!r}")
            if line.axiom not in system.schemas:
                return ProofOutcome(
                    False, no, f"axiom {line.axiom} not in {system.name}")
            if match_axiom(line.formula, line.axiom,
                           include_top=include_top) is None:
                return ProofOutcome(
                    False, no,
                    f"formula is not an instance of {line.axiom}")
        elif line.rule is not None:
            if line.rule not in RULE_NAMES:
                return ProofOutcome(False, no, f"unknown rule {line.rule!r}")
            if line.rule not in system.rules:
                return ProofOutcome(
                    False, no, f"rule {line.rule} not in {system.name}")
            if line.agent is not None and type(line.agent) is not int:
                return ProofOutcome(False, no,
                                    f"agent {line.agent!r} must be an int")
            for ref in line.premises:
                if type(ref) is not int or not 1 <= ref < no:
                    return ProofOutcome(
                        False, no, f"premise reference {ref} must point to "
                        "an earlier line")
            prems = [script.lines[ref - 1].formula for ref in line.premises]
            reason = _check_rule(line.rule, prems, line.formula,
                                 agent=line.agent, q=line.q, x=line.x)
            if reason is not None:
                return ProofOutcome(False, no, reason)
        else:
            return ProofOutcome(False, no, "line has no justification")
    return ProofOutcome(True)


# --- soundness sweeps --------------------------------------------------------

@dataclass
class SweepViolation:
    kind: str            # "axiom" or "rule"
    name: str
    model: object
    formula: Formula
    world: str

    def describe(self):
        return (f"{self.kind} {self.name} violated at world {self.world}: "
                f"{pretty(self.formula)}")


@dataclass
class SweepReport:
    system: str
    models_checked: int = 0
    instances: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)
    rule_findings: list = field(default_factory=list)
    expected_rules: tuple = ()

    @property
    def unexpected(self):
        out = list(self.violations)
        out.extend(v for v in self.rule_findings
                   if v.name not in self.expected_rules)
        return out

    @property
    def expected(self):
        return [v for v in self.rule_findings if v.name in self.expected_rules]

    def ok(self):
        return not self.unexpected


def _meta_bindings(rng, schema, props, n_agents, system, depth):
    """Random metavariable bindings for one schema instance, drawn from the
    system's language."""
    ops = system.ops
    qprob = 0.2 if system.quantifiers else 0.0
    b = {}
    for meta in schema.metas:
        name, _, kind = meta.partition(":")
        if name == _I:
            b[_I] = rng.randint(1, n_agents)
        elif name == _XV:
            b[_XV] = rng.choice(["x", "y"])
        elif kind == "open":
            var = b.get(_XV, "x")
            b[name] = random_formula(rng, props, n_agents, ops=ops,
                                     max_depth=depth, quantifier_prob=qprob,
                                     scope=(var,))
        elif kind == "qf":
            b[name] = random_qf_sentence(rng, props, n_agents, ops=ops,
                                         max_depth=max(1, depth - 1))
        else:
            f = random_formula(rng, props, n_agents, ops=ops, max_depth=depth,
                               quantifier_prob=qprob)
            if name == "phi" and schema.name == "N_forall":
                while b.get(_XV, "x") in free_vars(f):
                    f = random_formula(rng, props, n_agents, ops=ops,
                                       max_depth=depth)
            b[name] = f
    return b


def schema_instances(rng, name, props, n_agents, system, count, depth=3):
    """count fuzzed sentences instantiating the named schema."""
    schema = _SCHEMAS[name]
    out = []
    guard = 0
    while len(out) < count and guard < count * 30:
        guard += 1
        if name == "Prop":
            inst = random_tautology(
                rng, props, n_agents, ops=system.ops,
                max_depth=max(1, depth - 1),
                quantifier_prob=0.2 if system.quantifiers else 0.0)
        else:
            b = _meta_bindings(rng, schema, props, n_agents, system, depth)
            inst = instantiate(name, b)
        if is_sentence(inst) and system.allows(inst) is None:
            out.append(inst)
    return out


def soundness_sweep(system, models, *, seed=0, rng=None,
                    instances_per_schema=6, instance_depth=3,
                    check_rules=False, rule_samples=4):
    """Checks weak validity of fuzzed instances of every schema of the
    system on every supplied model, and per-model validity preservation of
    the system's rules other than MP (see _check_rules_on_model).

    Rule-preservation failures for Gen_forall are expected findings at
    finite proposition sets (its general soundness needs infinitely many
    propositions); they are reported but do not make the sweep fail.
    """
    import random as _random
    if isinstance(system, str):
        system = parse_system(system)
    if rng is None:
        rng = _random.Random(seed)
    report = SweepReport(system.name, expected_rules=("Gen_forall",))
    models = iter(models)
    first = next(models, None)
    if first is None:
        return report
    domain = system.domain
    corpus = {
        name: schema_instances(rng, name, first.props, first.agents, system,
                               instances_per_schema, instance_depth)
        for name in sorted(system.schemas)
    }
    report.instances = {name: len(insts) for name, insts in corpus.items()}
    named = [(name, inst) for name, insts in corpus.items() for inst in insts]
    batch = Corpus(inst for _, inst in named)
    for m in chain([first], models):
        report.models_checked += 1
        flags = batch.false_masks(m, domain)
        report.violations.extend(
            SweepViolation("axiom", name, m, inst, _first_world(m, mask))
            for (name, inst), mask in compress(zip(named, flags), flags))
        if check_rules:
            pool = [inst for (_, inst), flag in zip(named, flags) if not flag]
            _check_rules_on_model(system, m, domain, rng, pool, rule_samples,
                                  report)
    return report


def _check_rules_on_model(system, m, domain, rng, pool, samples, report):
    """Draws rule applications to premises from pool, the instances found
    weakly valid on m, and reports each conclusion that is False somewhere.
    MP is not drawn: its premises phi and phi -> psi would come from pool,
    so its conclusion psi would be weakly valid on m as well."""
    pool = pool[:40]
    if not pool:
        return
    drawn = []
    for rule in sorted(system.rules - {"MP"}):
        for _ in range(samples):
            phi = rng.choice(pool)
            if rule in ("Gen_K", "Gen_X", "Gen_star"):
                drawn.append((rule, _gen_conclusion(
                    rule, rng.randint(1, m.agents), phi)))
            elif rule == "Gen_forall":
                vocab = sorted(vocabulary(phi))
                if vocab:
                    drawn.append((rule, _gen_forall_conclusion(
                        phi, rng.choice(vocab))))
    masks = Corpus(f for _, f in drawn).false_masks(m, domain)
    report.rule_findings.extend(
        SweepViolation("rule", rule, m, f, _first_world(m, mask))
        for (rule, f), mask in compress(zip(drawn, masks), masks))


def search_schema_violation(name, models, *, seed=0, rng=None, system=None,
                            instances_per_model=6, instance_depth=2,
                            extra_instances=(), domain=None):
    """Searches the models for a world falsifying some instance of the named
    schema; returns the first SweepViolation found, or None."""
    import random as _random
    if rng is None:
        rng = _random.Random(seed)
    if system is None:
        system = SYSTEMS["AXe_KXAAstarforall"]
    if domain is None:
        domain = system.domain
    for m in models:
        insts = [inst for inst in (
            *extra_instances,
            *schema_instances(rng, name, m.props, m.agents, system,
                              instances_per_model, instance_depth))
            if is_sentence(inst) and system.allows(inst) is None]
        for inst, mask in zip(insts, Corpus(insts).false_masks(m, domain)):
            if mask:
                return SweepViolation("axiom", name, m, inst,
                                      _first_world(m, mask))
    return None
