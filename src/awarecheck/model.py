"""Extended awareness structures: finite Kripke models in which every world
carries its own sublanguage, plus per-agent awareness vocabularies.

Includes validation (one check, on masks), JSON (de)serialization from and
to masks, seeded random generation, exhaustive enumeration at desk scale,
and the two truth-preserving transformations (renaming, label swap).
"""

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import cache, lru_cache, reduce
from itertools import product
from operator import and_

__all__ = [
    "AwarenessStructure", "InvalidStructure", "PropertyReport",
    "parse_model_class", "validate", "generate_random", "enumerate_models",
    "count_models", "rename_props", "swap_model", "model_to_dict",
    "model_from_dict", "load_model", "save_model",
]


class InvalidStructure(ValueError):
    pass


def parse_model_class(text):
    """Parses a class spec like 'r,t,e', 'rte' or '' into a frozenset."""
    letters = [c for c in text.replace(",", "").replace(" ", "")]
    cls = frozenset(letters)
    if not cls <= {"r", "t", "e"}:
        raise ValueError(f"unknown class properties in {text!r}")
    return cls


class AwarenessStructure:
    """A finite structure (S, L, pi, K_1..K_n, A_1..A_n) over propositions
    props.

    A structure is stored as its kernels' model encoding (see encoding()):
    per proposition the mask of the worlds whose language has it and of those
    where it is true, per agent a successor mask and an awareness mask per
    world.  The constructor takes lang and val as dicts from world to a set
    of propositions, rel as a dict from agent to (world, world) pairs and
    aware as a dict from agent to a dict from world to a set; it hands them,
    as lists, to model_from_dict, so it accepts exactly the structures a
    model file may hold, with the same messages: names are strings, an
    absent agent or world entry of rel or aware is empty, and an entry of an
    agent beyond agents is refused.  The set views lang, val, rel and aware
    are decoded from the encoding: lang and val dicts from world to
    frozenset, rel a dict from agent to a frozenset of (world, world)
    tuples, aware a dict from agent to a dict from world to frozenset; by
    generation from primitive propositions, the awareness vocabulary A_i(s)
    determines the full sentence set the agent is aware of.  A structure
    that the loader, the generators, rename_props or evaluate_hr build from
    masks holds only its encoding until a set view is first read.
    """

    __slots__ = ("agents", "props", "worlds", "lang", "val", "rel", "aware",
                 "_ctx_cache", "_encoding")

    def __init__(self, agents, props, worlds, lang, val, rel, aware):
        m = model_from_dict({
            "agents": agents, "props": list(props), "worlds": [
                {"id": w, "lang": list(lang[w]), "true": list(val[w]),
                 "aware": {str(i): list(vocab.get(w, ()))
                           for i, vocab in aware.items()}} for w in worlds],
            "relations": {str(i): list(map(list, pairs))
                          for i, pairs in rel.items()}})
        self.agents, self.props, self.worlds, self._encoding = \
            m.agents, m.props, m.worlds, m._encoding
        self._ctx_cache = {}
        self._decode()

    @staticmethod
    def _of(agents, props, worlds, encoding):
        """The structure with this encoding, checked by no one: agents an
        int, props and worlds tuples, and encoding in encoding()'s form."""
        m = _Encoded.__new__(_Encoded)
        m.agents, m.props, m.worlds = agents, props, worlds
        m._encoding, m._ctx_cache = encoding, {}
        return m

    def _decode(self):
        """Sets the set views from the encoding."""
        n, pwm, ptrue, succ, aware = self._encoding
        props, worlds = self.props, self.worlds

        def named(mask):
            return frozenset(map(props.__getitem__, _bits(mask)))

        self.lang, self.val = ({w: named(mask) for w, mask in
                                zip(worlds, _transpose(masks, n))}
                               for masks in (pwm, ptrue))
        self.rel = {i: frozenset((s, worlds[t]) for s, row in zip(worlds, rows)
                                 for t in _bits(row))
                    for i, rows in enumerate(succ, 1)}
        self.aware = {i: dict(zip(worlds, map(named, rows)))
                      for i, rows in enumerate(aware, 1)}

    def __reduce__(self):  # copy and pickle carry the encoding, no cache
        return AwarenessStructure._of, (self.agents, self.props, self.worlds,
                                        self._encoding)

    def encoding(self):
        """The kernels' model encoding (see _kernel_py) as tuples:
        (n_worlds, prop_world_masks, prop_true, succ, aware)."""
        return self._encoding

    def key(self):
        return self.agents, self.props, self.worlds, self.encoding()

    def __eq__(self, other):
        return (isinstance(other, AwarenessStructure)
                and self.key() == other.key())

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return (f"AwarenessStructure(agents={self.agents}, "
                f"worlds={list(self.worlds)}, props={list(self.props)})")


class _Encoded(AwarenessStructure):
    """A structure built from masks by AwarenessStructure._of, whose set
    views are decoded from its encoding on first read.  Only this subclass
    has __getattr__, because a class with one gets no specialized attribute
    loads from CPython: once decoded, the structure becomes a plain
    AwarenessStructure."""

    __slots__ = ()

    def __getattr__(self, name):
        # reached only for an unset slot or an unknown name; any name but a
        # set view fails before a slot is read, or an object that copy or
        # pickle made, with no slot set yet, would recurse
        if name not in ("lang", "val", "rel", "aware"):
            raise AttributeError(name)
        self._decode()
        self.__class__ = AwarenessStructure
        return getattr(self, name)


def _encode(agents, props, worlds, langs, vals, succ, aware, strays):
    """The encoding of a structure given as masks: per world its language
    and valuation (an unknown proposition sets bit len(props)), per agent
    and world its successors and awareness, and the agents (strays) whose
    relation names an unknown world.  InvalidStructure for the first
    violation: worlds in order, then per agent its relation, each A_i(w)
    within L(w), and ka on each edge in name order; those make A_i(s) =
    A_i(t) lie within L(t) on every edge (s, t)."""
    if agents < 1 or not worlds or len(set(worlds)) < len(worlds) or \
            len(set(props)) < len(props):
        raise InvalidStructure(
            "need at least one agent" if agents < 1 else
            "need at least one world" if not worlds else "duplicate world ids"
            if len(set(worlds)) < len(worlds) else "duplicate proposition ids")
    for w, lang, val in zip(worlds, langs, vals):
        if not lang:
            raise InvalidStructure(f"empty language at world {w!r}")
        if lang >> len(props):
            raise InvalidStructure(f"language at {w!r} mentions unknown "
                                   "propositions")
        if val & ~lang:
            raise InvalidStructure(
                f"valuation at {w!r} not contained in its language")
    for i, rows, vocabs in zip(range(1, agents + 1), succ, aware):
        if i in strays:
            raise InvalidStructure(
                f"relation of agent {i} mentions unknown world")
        for w, vocab, lang in zip(worlds, vocabs, langs):
            if vocab & ~lang:
                raise InvalidStructure(
                    f"A_{i}({w!r}) not contained in the language of {w!r}")
        bad = [(worlds[s], worlds[t]) for s, row in enumerate(rows)
               for t in _bits(row) if vocabs[t] != vocabs[s]]
        if bad:
            raise InvalidStructure("ka fails for agent %d on edge (%r, %r)"
                                   % (i, *min(bad)))
    return (len(worlds), _transpose(langs, len(props)),
            _transpose(vals, len(props)), tuple(map(tuple, succ)),
            tuple(map(tuple, aware)))


@dataclass
class PropertyReport:
    reflexive: bool
    transitive: bool
    euclidean: bool
    ka: bool
    containment: bool
    la: bool
    witnesses: dict = field(default_factory=dict)

    def satisfies(self, model_class):
        ok = self.ka and self.containment
        if "r" in model_class:
            ok = ok and self.reflexive
        if "t" in model_class:
            ok = ok and self.transitive
        if "e" in model_class:
            ok = ok and self.euclidean
        return ok

    def as_dict(self):
        return {
            "reflexive": self.reflexive,
            "transitive": self.transitive,
            "euclidean": self.euclidean,
            "ka": self.ka,
            "containment": self.containment,
            "la": self.la,
            "witnesses": {k: list(v) for k, v in self.witnesses.items()},
        }


def validate(m):
    """Checks r/t/e/ka/containment/LA by direct quantifier elimination.

    Witnesses are the first offenders in (agent, world, ...) enumeration
    order.
    """
    def relation(i):
        succ = {w: set() for w in m.worlds}
        for (s, t) in m.rel[i]:
            succ[s].add(t)
        return succ

    succs = {i: relation(i) for i in range(1, m.agents + 1)}

    def first_r():
        for i in range(1, m.agents + 1):
            for w in m.worlds:
                if w not in succs[i][w]:
                    return (i, w)
        return None

    def first_te(euclidean):
        # for s -> t: t -> u needs s -> u, or (euclidean) s -> u needs t -> u
        for i in range(1, m.agents + 1):
            for s in m.worlds:
                for t in m.worlds:
                    if t not in succs[i][s]:
                        continue
                    src, dst = (s, t) if euclidean else (t, s)
                    for u in m.worlds:
                        if u in succs[i][src] and u not in succs[i][dst]:
                            return (i, s, t, u)
        return None

    def first_ka():
        for i in range(1, m.agents + 1):
            for s in m.worlds:
                for t in m.worlds:
                    if t in succs[i][s] and m.aware[i][s] != m.aware[i][t]:
                        return (i, s, t)
        return None

    def first_containment():
        for i in range(1, m.agents + 1):
            for s in m.worlds:
                own = m.aware[i][s] - m.lang[s]
                if own:
                    return (i, s, s, min(own))
                for t in m.worlds:
                    if t not in succs[i][s]:
                        continue
                    missing = m.aware[i][s] - m.lang[t]
                    if missing:
                        return (i, s, t, min(missing))
        return None

    def first_la():
        for i in range(1, m.agents + 1):
            for s in m.worlds:
                for p in m.props:
                    if p in m.aware[i][s]:
                        continue
                    if all(p in m.lang[t] for t in succs[i][s]):
                        return (i, s, p)
        return None

    found = {"reflexive": first_r(), "transitive": first_te(False),
             "euclidean": first_te(True), "ka": first_ka(),
             "containment": first_containment(), "la": first_la()}
    return PropertyReport(**{name: w is None for name, w in found.items()},
                          witnesses={name: w for name, w in found.items()
                                     if w is not None})


# --- transformations -------------------------------------------------------

def rename_props(m, tau):
    """Translates m along an injective proposition map tau.

    tau maps propositions in m.props to new names; omitted propositions map
    to themselves.  Languages, valuations and awareness sets are renamed
    pointwise, relations are untouched: the encoding, which indexes
    propositions by position, is m's.
    """
    full = {p: tau.get(p, p) for p in m.props}
    if len(set(full.values())) != len(full):
        raise ValueError("renaming is not injective")
    return AwarenessStructure._of(m.agents, tuple(full.values()), m.worlds,
                                  m.encoding())


def swap_model(m, p, p2):
    """Interchanges the roles of p and p2 in languages, valuations and
    awareness sets; everything else is untouched.  An involution."""
    if p == p2:
        raise ValueError("swap needs two distinct propositions")
    if p not in m.props or p2 not in m.props:
        raise ValueError("both propositions must belong to the structure")
    return rename_props(m, {p: p2, p2: p})


# --- relations as successor masks ------------------------------------------
#
# Generation and enumeration hold a relation on worlds 0..k-1 as k successor
# masks: bit t of succ[s] is set when s relates to t.  validate() reads the
# pairs instead, so that it checks this code rather than sharing it.

@lru_cache(maxsize=1 << 12)
def _bits(mask):
    """The indices of the set bits of mask, in increasing order."""
    return tuple(j for j in range(mask.bit_length()) if mask >> j & 1)


def _transpose(masks, n):
    """Per bit j < n, the mask of the indices of the masks that have it."""
    out = [0] * n
    for w, mask in enumerate(masks):
        for j in _bits(mask):
            out[j] |= 1 << w
    return tuple(out)


def _close(succ, model_class):
    """The least relation containing succ with the class properties."""
    succ = list(succ)
    if "r" in model_class:
        succ = [s | 1 << w for w, s in enumerate(succ)]
    trans, eucl = "t" in model_class, "e" in model_class
    changed = trans or eucl
    while changed:
        changed = False
        for w in range(len(succ)):
            for u in _bits(succ[w]):
                if trans and succ[u] & ~succ[w]:  # w->u->v gives w->v
                    succ[w] |= succ[u]
                    changed = True
                if eucl and succ[w] & ~succ[u]:  # w->u, w->v give u->v
                    succ[u] |= succ[w]
                    changed = True
    return tuple(succ)


def _mask_components(succ):
    """The weakly connected components of a relation, as world masks in the
    order of their lowest worlds."""
    linked = list(succ)  # successors and predecessors
    for w, s in enumerate(succ):
        for u in _bits(s):
            linked[u] |= 1 << w
    comps, seen = [], 0
    for w in range(len(succ)):
        if not seen >> w & 1:
            comp = frontier = 1 << w
            while frontier:
                reach = 0
                for u in _bits(frontier):
                    reach |= linked[u]
                frontier = reach & ~comp
                comp |= reach
            comps.append(comp)
            seen |= comp
    return comps


# --- random generation -----------------------------------------------------

def _check_args(agents, n_worlds, props):
    """props as a tuple, once the generators' shared bounds hold: at least
    one agent, world (n_worlds, the least an enumeration's bounds reach)
    and proposition, and no proposition named twice."""
    props = tuple(props)
    if not props:
        raise ValueError("need at least one proposition")
    if agents < 1 or n_worlds < 1 or len(set(props)) < len(props):
        raise InvalidStructure("need at least one agent" if agents < 1 else
                               "need at least one world" if n_worlds < 1
                               else "duplicate proposition ids")
    return props


_DENSITY = 0.35  # the chance of each edge before the class closure


def generate_random(agents, n_worlds, props, model_class=frozenset(),
                    seed=0, require_nonempty_awareness=False, rng=None):
    """Draws a structure passing validate() for the requested class.

    Sampling strategy: languages and valuations first, then relations closed
    under the class properties, then one awareness vocabulary per connected
    component drawn from the intersection of the component's languages (which
    makes ka and containment hold by construction).  So only the arguments
    are checked.  Everything is drawn into masks, which become the
    structure's encoding; valuations and awareness vocabularies are drawn
    over propositions in name order.
    """
    props = _check_args(agents, n_worlds, props)
    if rng is None:
        rng = random.Random(seed)
    by_name = sorted(range(len(props)), key=props.__getitem__)
    langs, vals = [], []
    for _ in range(n_worlds):
        lang = sum(1 << j for j in range(len(props)) if rng.random() < 0.75) \
            or 1 << rng.randrange(len(props))
        langs.append(lang)
        vals.append(sum(1 << j for j in by_name
                        if lang >> j & 1 and rng.random() < 0.5))
    succs, aware_rows = [], []
    for _ in range(agents):
        succ = _close([sum(1 << t for t in range(n_worlds)
                           if rng.random() < _DENSITY)
                       for _ in range(n_worlds)], model_class)
        row = [0] * n_worlds
        for comp in _mask_components(succ):
            members = _bits(comp)
            inter = reduce(and_, [langs[w] for w in members])
            shared = [j for j in by_name if inter >> j & 1]
            picked = sum(1 << j for j in shared if rng.random() < 0.5)
            if require_nonempty_awareness and shared and not picked:
                picked = 1 << rng.choice(shared)
            for w in members:
                row[w] = picked
        succs.append(succ)
        aware_rows.append(tuple(row))
    return AwarenessStructure._of(
        agents, props, tuple(f"w{j}" for j in range(n_worlds)),
        (n_worlds, _transpose(langs, len(props)),
         _transpose(vals, len(props)), tuple(succs), tuple(aware_rows)))


# --- exhaustive enumeration ------------------------------------------------

@cache
def _relations(k, model_class):
    """All relations on k worlds with the class properties, in numeric
    adjacency order."""
    if k * k > 20:
        raise ValueError(f"relation enumeration infeasible for {k} worlds")
    row = (1 << k) - 1
    every = (tuple(bits >> (k * w) & row for w in range(k))
             for bits in range(1 << (k * k)))
    return [succ for succ in every if _close(succ, model_class) == succ]


def _subsets(mask):
    """All submasks of mask in increasing numeric order."""
    subs = []
    sub = 0
    while True:
        subs.append(sub)
        if sub == mask:
            return subs
        sub = (sub - mask) & mask


def _languages(k, n_props, constant_language, splits):
    """Yields each language assignment langs of k worlds (one nonempty
    proposition mask per world, or the full mask at every world) with, per
    component split in splits, the (component, propositions in every
    language of the component) pairs of its components."""
    full = (1 << n_props) - 1
    choices = [full] if constant_language else range(1, full + 1)
    for langs in product(choices, repeat=k):
        yield langs, [[(comp, reduce(and_, [langs[w] for w in _bits(comp)]))
                       for comp in comps] for comps in splits]


def count_models(agents, max_worlds, props, model_class=frozenset(),
                 constant_language=False, min_worlds=1):
    """Exact model count for the enumerate_models bounds.

    Per world count k:  sum over language assignments L and relation tuples
    (one per agent) of  prod_w 2^|L(w)|  *  prod_i prod_comps 2^|intersection
    of L over the component|.  The second factor depends on a relation only
    through its split into components, so each split is counted once, times
    the number of relations that have it.
    """
    props = _check_args(agents, min(min_worlds, max_worlds), props)
    total = 0
    for k in range(min_worlds, max_worlds + 1):
        splits = Counter(tuple(_mask_components(succ))
                         for succ in _relations(k, model_class))
        for langs, inters in _languages(k, len(props), constant_language,
                                        splits):
            aware_total = sum(
                n << sum(inter.bit_count() for _, inter in pairs)
                for n, pairs in zip(splits.values(), inters))
            total += (1 << sum(lang.bit_count() for lang in langs)) * \
                aware_total ** agents
    return total


def enumerate_models(agents, max_worlds, props, model_class=frozenset(),
                     constant_language=False, min_worlds=1,
                     max_count=20_000_000):
    """Streams every structure over the given bounds exactly once, with
    canonical world ids w0..wk.  No isomorphism reduction.

    The count explodes as documented in count_models; the generator refuses
    to start if the exact count exceeds max_count.
    """
    props = _check_args(agents, min(min_worlds, max_worlds), props)
    if max_count is not None:
        n = count_models(agents, max_worlds, props, model_class,
                         constant_language, min_worlds)
        if n > max_count:
            raise ValueError(f"enumeration would yield {n} models "
                             f"(cap {max_count})")
    for k in range(min_worlds, max_worlds + 1):
        worlds = tuple(f"w{j}" for j in range(k))
        rels = _relations(k, model_class)
        splits = {}
        split_of = [splits.setdefault(tuple(_mask_components(succ)),
                                      len(splits)) for succ in rels]
        for langs, inters in _languages(k, len(props), constant_language,
                                        splits):
            pwm = _transpose(langs, len(props))
            # per split, each awareness choice as its mask per world: that
            # of the world's component
            aware_rows = []
            for pairs in inters:
                owner = [c for w in range(k)
                         for c, (comp, _) in enumerate(pairs) if comp >> w & 1]
                choices = product(*[_subsets(inter) for _, inter in pairs])
                aware_rows.append([tuple(map(choice.__getitem__, owner))
                                   for choice in choices])
            ptrues = [_transpose(vals, len(props))
                      for vals in product(*map(_subsets, langs))]
            for rel_idx in product(range(len(rels)), repeat=agents):
                succ = tuple(rels[r] for r in rel_idx)
                for rows in product(*[aware_rows[split_of[r]]
                                      for r in rel_idx]):
                    for ptrue in ptrues:
                        yield AwarenessStructure._of(
                            agents, props, worlds, (k, pwm, ptrue, succ, rows))


# --- JSON ------------------------------------------------------------------

def model_to_dict(m):
    """m as a JSON object, written from its encoding: names in props order,
    relation pairs in world order."""
    _, pwm, ptrue, succ, aware = m.encoding()
    props, worlds = m.props, m.worlds
    return {"agents": m.agents, "props": list(props), "worlds": [
        {"id": w,
         "lang": [p for p, mask in zip(props, pwm) if mask >> j & 1],
         "true": [p for p, mask in zip(props, ptrue) if mask >> j & 1],
         "aware": {str(i): list(map(props.__getitem__, _bits(rows[j])))
                   for i, rows in enumerate(aware, 1)}}
        for j, w in enumerate(worlds)], "relations": {
        str(i): [[s, worlds[t]] for s, row in zip(worlds, rows)
                 for t in _bits(row)] for i, rows in enumerate(succ, 1)}}


def model_from_dict(d):
    """The structure a JSON object describes, mapped in one pass to its
    encoding and checked there, with set views decoded on first read;
    InvalidStructure for a malformed shape too.  The constructor's
    arguments come this way as well."""
    try:
        agents, props = d["agents"], d["props"]
        if type(agents) is not int:  # bool is an int, 1.9 would truncate
            raise TypeError(f"expected an integer agent count, got "
                            f"{agents!r}")
        if not isinstance(props, list) or \
                not all(isinstance(p, str) for p in props):
            raise TypeError(f"expected a list of names, got {props!r}")
        bit = {p: 1 << j for j, p in enumerate(props)}
        unknown = 1 << len(props)

        def mask(names):  # an unknown name sets bit len(props)
            if not isinstance(names, list):
                raise TypeError(f"expected a list of names, got {names!r}")
            got = 0
            for p in names:
                if not isinstance(p, str):
                    raise TypeError(f"expected a list of names, got {names!r}")
                got |= bit.get(p, unknown)
            return got

        entries = d["worlds"]
        worlds = [e["id"] for e in entries]
        if not all(isinstance(w, str) for w in worlds):
            raise TypeError(f"expected names as world ids, got {worlds!r}")
        langs = [mask(e["lang"]) for e in entries]
        vals = [mask(e["true"]) for e in entries]
        tables = [e.get("aware", {}) for e in entries] if agents > 0 else []
        relations = d.get("relations", {})
        keys = [str(i) for i in range(1, agents + 1)]
        known = set(keys)
        for table in (relations, *tables):
            if not isinstance(table, dict):
                raise TypeError(f"expected an object, got {table!r}")
            # with no agent at all, _encode names that error
            if not table.keys() <= known and agents > 0:
                raise ValueError(
                    f"unknown agent {min(table.keys() - known)!r}")
        aware = [[mask(table.get(key, [])) for table in tables]
                 for key in keys]
        wbit = {w: 1 << j for j, w in enumerate(worlds)}
        succ, strays = [], set()
        for i in range(1, agents + 1):
            rows = dict.fromkeys(worlds, 0)
            for pair in relations.get(str(i), []):
                try:
                    s, t = pair if type(pair) is list else ()
                    rows[s] |= wbit[t]
                except (KeyError, TypeError, ValueError):  # no known pair
                    if type(pair) is not list or len(pair) != 2 or \
                            not all(isinstance(w, str) for w in pair):
                        raise TypeError(f"expected a pair of names, got "
                                        f"{pair!r}") from None
                    strays.add(i)
            succ.append(list(rows.values()))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidStructure(f"malformed model JSON: {exc}") from exc
    props, worlds = tuple(props), tuple(worlds)
    return AwarenessStructure._of(agents, props, worlds, _encode(
        agents, props, worlds, langs, vals, succ, aware, strays))


def load_model(path):
    with open(path, "rb", buffering=0) as fh:
        return model_from_dict(json.loads(fh.read().decode("utf-8")))


def save_model(m, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(m), fh, indent=2, sort_keys=True)
        fh.write("\n")
